// The FFBP element-combining inner kernel — shared verbatim by the
// sequential host reference, the sequential-Epiphany kernel, and the
// 16-core SPMD kernel, so all three produce bit-identical images and are
// charged for exactly the same counted work.
//
// Geometry (paper eqs. 1-4, Fig. 3(b)): a parent subaperture pixel at polar
// position (r, theta) about the parent phase centre receives contributions
// from its two child subapertures whose phase centres sit at -l/2 and +l/2
// along the track (l = child subaperture length). The cosine theorem gives
// the child-relative coordinates:
//   r1 = sqrt(r^2 + d^2 + 2 r d cos(theta)),  d = l/2      (eq. 1)
//   r2 = sqrt(r^2 + d^2 - 2 r d cos(theta))                (eq. 2)
//   theta1 =        acos((r1^2 + d^2 - r^2) / (2 r1 d))    (eq. 3)
//   theta2 = pi -   acos((r2^2 + d^2 - r^2) / (2 r2 d))    (eq. 4)
// and the element combining is a(r,theta) = a1(r1,theta1) + a2(r2,theta2)
// (eq. 5). The square roots, reciprocals and arccosines use the shared
// fastmath implementations (the paper's "less compute-intensive
// implementation of the square root", applied on both architectures).
//
// Sharing contract: a row of merge_geometry outputs depends only on the
// parent theta row and the child half-spacing d (through cr, d2, inv_2d),
// never on the pixel data or on which subaperture pair is merged. Callers
// therefore compute a geometry row once and reuse it for every pair of a
// level whose float d has the same bits: sar::merge_level keys its row on
// d, and the chip kernels keep a per-level table indexed by theta row.
// The per-pair flight-path shift is added to the row's ranges at sampling
// time (merge_parent_row, kernels::nearest_index_row), so it never
// invalidates a row.
#pragma once

#include <cstdint>
#include <vector>

#include "common/fastmath.hpp"
#include "common/opcounts.hpp"
#include "common/types.hpp"
#include "sar/interp.hpp"

namespace esarp::sar {

/// Child-relative polar coordinates of one parent pixel.
struct MergeGeom {
  float r1, theta1; ///< in the trailing child (centre at -l/2)
  float r2, theta2; ///< in the leading child (centre at +l/2)
};

/// Compute eqs. 1-4. `r` is the parent pixel range, `cr = 2*d*cos(theta)`
/// is precomputed once per theta row (d = half the child spacing), `d2 =
/// d*d`, `inv_2d = 1/(2*d)`.
inline MergeGeom merge_geometry(float r, float cr, float d2, float inv_2d) {
  namespace fm = esarp::fastmath;
  const float r2v = r * r;
  const float base = r2v + d2;
  const float rcr = r * cr;
  const float r1sq = base + rcr; // eq. 1 squared
  const float r2sq = base - rcr; // eq. 2 squared
  const float r1 = fm::fast_sqrt(r1sq);
  const float r2 = fm::fast_sqrt(r2sq);
  // eq. 3: acos((r1^2 + d^2 - r^2) / (r1 * l)) with l = 2d.
  const float n1 = r1sq + d2 - r2v;
  const float n2 = r2sq + d2 - r2v;
  const float i1 = fm::fast_recip_pos(r1 > 0.0f ? r1 : 1.0f);
  const float i2 = fm::fast_recip_pos(r2 > 0.0f ? r2 : 1.0f);
  const float a1 = n1 * i1 * inv_2d;
  const float a2 = n2 * i2 * inv_2d;
  const float c1 = a1 > 1.0f ? 1.0f : (a1 < -1.0f ? -1.0f : a1);
  const float c2 = a2 > 1.0f ? 1.0f : (a2 < -1.0f ? -1.0f : a2);
  constexpr float pi = 3.14159265358979f;
  return {r1, fm::poly_acos(c1), r2, pi - fm::poly_acos(c2)};
}

/// Work of one merge_geometry call, matching the body above:
///   3 fmul + 3 fadd for the squared-range forms,
///   2 fast_sqrt, 2 fast_recip,
///   per child: 2 fadd (numerator) + 2 fmul (normalise) + clamp (2 fcmp),
///   2 poly_acos + 1 fadd (the pi - ... of eq. 4).
inline constexpr OpCounts kMergeGeomOps =
    OpCounts{.fadd = 3 + 4 + 1, .fmul = 3 + 4, .fcmp = 4 + 2} +
    2 * fastmath::kSqrtOps + 2 * fastmath::kRecipOps + 2 * fastmath::kAcosOps;

/// Work of turning the geometry into nearest-neighbour (range, angle)
/// indices for both children and combining (paper eq. 5):
///   per child: 2 fma (scale to bin coordinates) + 2 float->int + bounds
///   checks, 2 word loads; plus the complex accumulate (2 fadd) and the
///   2-word store of the parent pixel.
inline constexpr OpCounts kMergeIndexCombineOps{
    .fadd = 4, // complex accumulation of both children
    .fma = 4,  // bin-coordinate scaling (r and theta, both children)
    .fcmp = 8, // bounds checks
    .ialu = 12, // float->int conversions, address arithmetic
    .branch = 2,
    .load = 4,  // two complex child pixels
    .store = 2, // one complex parent pixel
};

/// Total per-pixel work of the nearest-neighbour merge inner loop.
inline constexpr OpCounts kMergePixelOps =
    kMergeGeomOps + kMergeIndexCombineOps;

/// Per-theta-row setup work (cos(theta) and derived constants, amortised
/// over n_range pixels).
inline constexpr OpCounts kMergeRowOps =
    fastmath::kCosOps + OpCounts{.fadd = 1, .fmul = 2, .ialu = 6};

/// Interpolation kernel used when sampling child subaperture images.
enum class Interp {
  kNearest, ///< the paper's "simplified (nearest neighbor) interpolation"
  kLinear,  ///< linear in range, nearest in angle
  kCubic,   ///< 4-point Neville in range, nearest in angle
};

/// Child-grid constants in single precision, precomputed once per merge.
struct ChildGrid {
  float theta_start; ///< lower edge of the angular sector
  float inv_dtheta;  ///< 1 / child angular bin width
  int n_theta;
  float r0;      ///< range of bin 0
  float dr;      ///< range-bin spacing
  float inv_dr;  ///< 1 / dr
  int n_range;
  float k_phase; ///< 4*pi/lambda, for the phase-compensated variant
  // Carrier rotation per range bin (k_phase * dr) and its phasor powers,
  // used by the carrier-aware linear/cubic kernels: the stored data's
  // phase is referenced to the bin grid, so neighbouring bins differ by a
  // fixed rotation that must be removed before complex interpolation and
  // restored at the interpolated position.
  float carrier_rad;  ///< k_phase * dr [radians per bin]
  cf32 rot_m1;        ///< e^{-i carrier_rad}
  cf32 rot_p1;        ///< e^{+i carrier_rad}
  cf32 rot_m2;        ///< e^{-2 i carrier_rad}
};

/// Child bin-coordinate tests, decided in float before any int conversion
/// so that a NaN, infinite or huge coordinate can never become an index.
/// `tf` is the angular bin coordinate, `rf` the range bin coordinate.
inline bool in_sector(const ChildGrid& g, float tf) {
  return tf >= 0.0f && tf < static_cast<float>(g.n_theta);
}
inline bool nearest_in_swath(const ChildGrid& g, float rf) {
  return rf >= -0.5f && rf + 0.5f < static_cast<float>(g.n_range);
}

/// Nearest-neighbour child indices of one sample at child-relative polar
/// position (rc, thc): `it` is the containing angular bin and `ir` the
/// nearest range bin, or both are -1 when the sample is outside the sector
/// or the swath and contributes zero. The scalar reference of
/// kernels::nearest_index_row.
inline void nearest_child_index(const ChildGrid& g, float rc, float thc,
                                std::int32_t& it, std::int32_t& ir) {
  const float tf = (thc - g.theta_start) * g.inv_dtheta;
  const float rf = (rc - g.r0) * g.inv_dr;
  const bool valid = in_sector(g, tf) && nearest_in_swath(g, rf);
  it = valid ? static_cast<std::int32_t>(tf) : -1;
  ir = valid ? static_cast<std::int32_t>(rf + 0.5f) : -1;
}

/// Nearest-neighbour child indices of one parent row: four contiguous
/// planes of n entries (a structure of arrays, so the SIMD index kernel
/// stores whole vectors), child 1 at (it1, ir1) and child 2 at (it2, ir2).
struct NearestIndexRow {
  explicit NearestIndexRow(std::size_t n_range)
      : n(n_range), planes(4 * n_range) {}
  std::size_t n;
  std::vector<std::int32_t> planes; ///< it1 | ir1 | it2 | ir2
  std::int32_t* it1() { return planes.data(); }
  std::int32_t* ir1() { return planes.data() + n; }
  std::int32_t* it2() { return planes.data() + 2 * n; }
  std::int32_t* ir2() { return planes.data() + 3 * n; }
};

/// Sample one child image at child-relative polar position (rc, thc).
/// `fetch(it, ir)` returns the child pixel at integer indices and is only
/// invoked with it in [0, n_theta) and ir in [0, n_range). Out-of-sector /
/// out-of-swath positions contribute zero (the paper's "skip the additions
/// with zero when the indices are out of range"), and so do NaN, infinite
/// and huge positions: validity is decided before the int conversions.
///
/// This template is the single definition of the merge arithmetic: the
/// sequential host reference and the simulated Epiphany kernels instantiate
/// it with different fetchers but produce bit-identical pixels. Their plain
/// nearest-neighbour rows take the split path instead
/// (kernels::nearest_index_row, then a gather), whose indices are those of
/// the kNearest case below.
template <typename Fetch>
inline cf32 sample_child(const ChildGrid& g, float rc, float thc,
                         Interp interp, bool phase_compensate,
                         Fetch&& fetch) {
  namespace fm = esarp::fastmath;
  const float tf = (thc - g.theta_start) * g.inv_dtheta;
  if (!in_sector(g, tf)) return {};
  const int it = static_cast<int>(tf); // containing angular bin
  const float rf = (rc - g.r0) * g.inv_dr;

  cf32 v{};
  switch (interp) {
    case Interp::kNearest: {
      if (!nearest_in_swath(g, rf)) return {};
      const int ir = static_cast<int>(rf + 0.5f);
      v = fetch(it, ir);
      if (phase_compensate) {
        // Residual range phase between the exact range and the bin grid.
        const float resid =
            g.k_phase * (rc - (g.r0 + static_cast<float>(ir) * g.dr));
        const cf32 ph{fm::poly_cos(resid), fm::poly_sin(resid)};
        v *= ph;
      }
      break;
    }
    case Interp::kLinear: {
      if (!(rf >= 0.0f && rf < static_cast<float>(g.n_range - 1))) return {};
      const int ir = static_cast<int>(rf);
      const float t = rf - static_cast<float>(ir);
      // Carrier-aware: de-reference the second node to bin ir's carrier
      // phase, interpolate the now-smooth signal, then restore the
      // carrier at the fractional position.
      const cf32 y0 = fetch(it, ir);
      const cf32 y1 = fetch(it, ir + 1) * g.rot_m1;
      const cf32 s = y0 + (y1 - y0) * t;
      const float ph = g.carrier_rad * t;
      v = s * cf32{fm::poly_cos(ph), fm::poly_sin(ph)};
      break;
    }
    case Interp::kCubic: {
      // Nodes ir-1 .. ir+2 must all lie in the swath.
      if (!(rf >= 1.0f && rf < static_cast<float>(g.n_range - 2))) return {};
      const int ir = static_cast<int>(rf);
      const float t = rf - static_cast<float>(ir) + 1.0f; // node offset
      // Carrier-aware Neville: nodes de-referenced to bin ir (node 1).
      const cf32 y[4] = {fetch(it, ir - 1) * g.rot_p1, fetch(it, ir),
                         fetch(it, ir + 1) * g.rot_m1,
                         fetch(it, ir + 2) * g.rot_m2};
      const cf32 s = neville4(y, t);
      const float ph = g.carrier_rad * (t - 1.0f);
      v = s * cf32{fm::poly_cos(ph), fm::poly_sin(ph)};
      break;
    }
  }
  return v;
}

/// One complex multiply expressed as mul/fma pairs.
inline constexpr OpCounts kComplexMulOps{.fmul = 2, .fma = 2};

/// Extra per-child-sample work of the carrier handling in the linear
/// kernel: one node de-reference, the fractional re-reference phasor
/// (poly cos+sin) and the result rotation.
inline constexpr OpCounts kCarrierLinearOps =
    2 * kComplexMulOps + fastmath::kCosOps + fastmath::kSinOps +
    OpCounts{.fmul = 1};

/// Extra per-child-sample work of the carrier handling in the cubic
/// kernel: three node de-references plus the fractional re-reference.
inline constexpr OpCounts kCarrierCubicOps =
    4 * kComplexMulOps + fastmath::kCosOps + fastmath::kSinOps +
    OpCounts{.fadd = 1, .fmul = 1};

/// Additional per-pixel work when the residual range phase is compensated
/// (the quality-improving merge variant; see FfbpOptions::phase_compensate):
/// one poly_sin + one poly_cos on the residual and a complex multiply.
inline constexpr OpCounts kPhaseCompensateOps =
    fastmath::kSinOps + fastmath::kCosOps +
    OpCounts{.fadd = 4, .fmul = 4, .fma = 2};

} // namespace esarp::sar
