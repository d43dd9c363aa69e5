// Fast Factorized Back-Projection (FFBP) — sequential reference.
//
// Merge base 2: level 0 holds one subaperture per pulse (a range profile
// with a single angular bin); each iteration pairwise-merges subapertures,
// doubling aperture length and angular resolution, until one subaperture
// spans the full synthetic aperture — for the paper's 1024-pulse data set,
// ten iterations ending in a 1024 x 1001 polar image.
//
// Phase handling: at level 0 each range bin is referenced to the bin-grid
// range (multiplied by e^{+i 4 pi r_j / lambda}), after which the paper's
// plain complex addition (eq. 5) integrates coherently for UWB
// low-frequency parameters; the nearest-neighbour rounding of eqs. 1-4
// leaves a residual phase error that is exactly the FFBP quality loss the
// paper reports against GBP (Fig. 7). FfbpOptions lets benchmarks trade
// that quality against work (interpolation kernel, residual-phase
// compensation).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/array2d.hpp"
#include "common/assert.hpp"
#include "common/opcounts.hpp"
#include "common/types.hpp"
#include "hostmodel/host_model.hpp"
#include "sar/kernels.hpp"
#include "sar/merge_kernel.hpp"
#include "sar/params.hpp"
#include "sar/polar.hpp"
#include "sar/scene.hpp"

namespace esarp::sar {

struct FfbpOptions {
  Interp interp = Interp::kNearest;
  /// Multiply each nearest-neighbour contribution by the residual range
  /// phase (quality-improving variant; only meaningful with kNearest).
  bool phase_compensate = false;
};

struct LevelStats {
  std::size_t level = 0;      ///< level being produced (1..n)
  std::size_t merges = 0;     ///< subaperture pairs merged
  std::uint64_t pixels = 0;   ///< parent pixels computed
  OpCounts ops;               ///< arithmetic charged for this level
};

struct FfbpResult {
  SubapertureImage image;        ///< full-aperture polar image
  OpCounts ops;                  ///< total counted work
  host::HostWork host_work;      ///< work + memory traffic for the i7 model
  std::vector<LevelStats> levels;
};

/// e^{+i 4 pi r_j / lambda} for every range bin (level-0 referencing).
[[nodiscard]] std::vector<cf32> range_phase_table(const RadarParams& p);

/// Decompose pulse-compressed data into level-0 subapertures (one pulse
/// each, single angular bin, range-phase referenced). When `track` is
/// given, each subaperture's phase centre uses the RECORDED along-track
/// position (nominal + dx) instead of the nominal uniform grid — the
/// motion compensation a time-domain processor gets for free from GPS data
/// (paper Section I: back-projection "can compensate for non-linear flight
/// tracks"), and which the merge geometry then honours pair by pair.
[[nodiscard]] std::vector<SubapertureImage>
initial_subapertures(const Array2D<cf32>& data, const RadarParams& p,
                     const FlightPathError* track = nullptr);

/// Per-pixel op counts of the merge inner loop for the given options.
[[nodiscard]] OpCounts merge_pixel_ops(const FfbpOptions& opt);

/// Single-precision child-grid constants for a merge whose children have
/// `n_theta_child` angular bins. Shared by the host reference and the
/// simulated kernels so their arithmetic is bit-identical.
[[nodiscard]] ChildGrid make_child_grid(const RadarParams& p,
                                        std::size_t n_theta_child);

/// Geometry constants of one merge level (all children of a level share
/// them): child phase-centre half-offset d and derived values, plus the
/// parent angular grid.
struct MergeLevelGeom {
  float d;      ///< half the child-centre spacing (paper's l/2)
  float d2;     ///< d*d
  float inv_2d; ///< 1/(2d)
  std::size_t n_theta_parent;
  ChildGrid child;

  /// Parent-row constants: theta and cr = 2*d*cos(theta) for row i,
  /// computed exactly as the reference merge loop does.
  [[nodiscard]] float theta_of_row(const RadarParams& p,
                                   std::size_t i) const {
    const double theta_start = p.theta_center_rad - 0.5 * p.theta_span_rad;
    const double dtheta =
        p.theta_span_rad / static_cast<double>(n_theta_parent);
    return static_cast<float>(theta_start +
                              (static_cast<double>(i) + 0.5) * dtheta);
  }
};

/// Geometry for producing `level` (children are at level-1). Level is
/// 1-based: level 1 merges single-pulse subapertures.
[[nodiscard]] MergeLevelGeom merge_level_geom(const RadarParams& p,
                                              std::size_t level);

/// One parent row of a merge (paper eq. 5): out[j] = child-1 sample +
/// child-2 sample at the geometry geom[j], the children realigned by the
/// per-pair range offsets shift1 / shift2 (metres, added to r1 / r2).
/// `fetch1` / `fetch2` follow sample_child's fetch contract. The one
/// definition of the per-pixel merge: sar::merge_level and the simulated
/// chip kernels instantiate it with different fetchers and produce
/// bit-identical rows. The plain nearest-neighbour merge splits into the
/// vectorised index pass (kernels::nearest_index_row, into `idx`) and a
/// gather; the other variants sample through sample_child.
template <typename Fetch1, typename Fetch2>
inline void merge_parent_row(const ChildGrid& g, const FfbpOptions& opt,
                             std::span<const MergeGeom> geom, float shift1,
                             float shift2, NearestIndexRow& idx,
                             Fetch1&& fetch1, Fetch2&& fetch2,
                             std::span<cf32> out) {
  const std::size_t n = out.size();
  ESARP_EXPECTS(geom.size() >= n);
  if (opt.interp == Interp::kNearest && !opt.phase_compensate) {
    kernels::nearest_index_row(geom.data(), n, g, shift1, shift2, idx);
    const std::int32_t* it1 = idx.it1();
    const std::int32_t* ir1 = idx.ir1();
    const std::int32_t* it2 = idx.it2();
    const std::int32_t* ir2 = idx.ir2();
    for (std::size_t j = 0; j < n; ++j) {
      const cf32 v1 = it1[j] >= 0 ? fetch1(it1[j], ir1[j]) : cf32{};
      const cf32 v2 = it2[j] >= 0 ? fetch2(it2[j], ir2[j]) : cf32{};
      out[j] = v1 + v2;
    }
    return;
  }
  for (std::size_t j = 0; j < n; ++j) {
    const MergeGeom& m = geom[j];
    const cf32 v1 = sample_child(g, m.r1 + shift1, m.theta1, opt.interp,
                                 opt.phase_compensate, fetch1);
    const cf32 v2 = sample_child(g, m.r2 + shift2, m.theta2, opt.interp,
                                 opt.phase_compensate, fetch2);
    out[j] = v1 + v2;
  }
}

/// Merge every adjacent pair (children[2k], children[2k+1]) of one level
/// into its parent (paper eqs. 1-5). `shift_bins` is empty (no
/// compensation) or holds one flight-path compensation per pair, as in
/// merge_pair_compensated. The theta-row loop runs outside the pair loop:
/// one geometry row serves every pair whose child half-spacing d has the
/// same float bits (every pair of a nominal track; a recorded track gives
/// each pair its own d). `tally`, if non-null, accumulates the counted
/// work, which does not depend on the sharing.
[[nodiscard]] std::vector<SubapertureImage>
merge_level(std::span<const SubapertureImage> children, const RadarParams& p,
            const FfbpOptions& opt, std::span<const float> shift_bins = {},
            OpCounts* tally = nullptr);

/// Merge two adjacent subapertures into their parent (paper eqs. 1-5).
/// `tally`, if non-null, accumulates the counted work.
[[nodiscard]] SubapertureImage merge_pair(const SubapertureImage& a,
                                          const SubapertureImage& b,
                                          const RadarParams& p,
                                          const FfbpOptions& opt,
                                          OpCounts* tally = nullptr);

/// Merge with a flight-path compensation: the autofocus criterion models a
/// path error as a relative range shift of `shift_bins` between the two
/// child images (paper Section II-A); the compensated merge samples the
/// trailing child at -shift/2 and the leading child at +shift/2 range
/// bins, realigning the contributions before the addition of eq. 5.
/// shift_bins == 0 reduces exactly to merge_pair. Both are the one-pair
/// case of merge_level.
[[nodiscard]] SubapertureImage merge_pair_compensated(
    const SubapertureImage& a, const SubapertureImage& b,
    const RadarParams& p, const FfbpOptions& opt, float shift_bins,
    OpCounts* tally = nullptr);

/// Run the full factorisation. `track` (optional) supplies the recorded
/// pulse positions for along-track motion compensation; the nominal
/// uniform track is assumed otherwise.
[[nodiscard]] FfbpResult ffbp(const Array2D<cf32>& data, const RadarParams& p,
                              const FfbpOptions& opt = {},
                              const FlightPathError* track = nullptr);

} // namespace esarp::sar
