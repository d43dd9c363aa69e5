// Bit-exactness tests of the unified kernel API (sar/kernels.hpp): every
// available SIMD backend must reproduce the scalar reference bit for bit
// on every kernel, including the non-multiple-of-width tails, clamp and
// validity edge cases. Comparison is on the float bit patterns, not on a
// tolerance — the SIMD backends are only allowed to exist because they
// change nothing.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/fastmath.hpp"
#include "common/types.hpp"
#include "sar/ffbp.hpp"
#include "sar/kernels.hpp"
#include "sar/kernels_impl.hpp"
#include "sar/params.hpp"

namespace esarp::sar {
namespace {

namespace k = kernels;

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

void expect_bits_eq(float a, float b, const char* what, std::size_t i) {
  EXPECT_EQ(bits(a), bits(b)) << what << " lane " << i << ": " << a
                              << " vs " << b;
}

bool same_bits(cf32 a, cf32 b) {
  return bits(a.real()) == bits(b.real()) && bits(a.imag()) == bits(b.imag());
}

void expect_bits_eq(cf32 a, cf32 b, const char* what, std::size_t i) {
  expect_bits_eq(a.real(), b.real(), what, i);
  expect_bits_eq(a.imag(), b.imag(), what, i);
}

/// Deterministic xorshift float in [lo, hi) — no libc rand, identical
/// sequences on every platform.
struct Rng {
  std::uint32_t s = 0x9e3779b9u;
  std::uint32_t next_u32() {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    return s;
  }
  float uniform(float lo, float hi) {
    const float u =
        static_cast<float>(next_u32() >> 8) * (1.0f / 16777216.0f);
    return lo + (hi - lo) * u;
  }
  cf32 complex(float lo, float hi) {
    const float re = uniform(lo, hi);
    return {re, uniform(lo, hi)};
  }
};

std::vector<k::Backend> simd_backends() {
  std::vector<k::Backend> b;
  if (k::backend_available(k::Backend::kSse2)) b.push_back(k::Backend::kSse2);
  if (k::backend_available(k::Backend::kAvx2)) b.push_back(k::Backend::kAvx2);
  return b;
}

/// Run `fn` once per available SIMD backend, restoring the scalar backend
/// between runs so the reference outputs inside `fn` are scalar-computed.
template <typename Fn>
void for_each_simd_backend(Fn&& fn) {
  const k::Backend before = k::active();
  for (const k::Backend b : simd_backends()) {
    SCOPED_TRACE(k::backend_name(b));
    fn(b);
  }
  k::force_backend(before);
}

// Odd sizes exercise the scalar tails after the full vector quanta.
constexpr std::size_t kSizes[] = {1, 3, 4, 7, 8, 15, 16, 101};

TEST(Kernels, ScalarBackendAlwaysAvailable) {
  EXPECT_TRUE(k::backend_available(k::Backend::kScalar));
  EXPECT_STREQ(k::backend_name(k::Backend::kScalar), "scalar");
}

TEST(Kernels, MergeGeometryRowMatchesScalarBitForBit) {
  for_each_simd_backend([&](k::Backend b) {
    Rng rng;
    for (const std::size_t n : kSizes) {
      const float r0 = rng.uniform(1000.0f, 5000.0f);
      const float dr = rng.uniform(0.5f, 2.0f);
      const float d = rng.uniform(1.0f, 50.0f);
      // cos(theta) spans [-1, 1] across rows; include both signs.
      const float cr = 2.0f * d * rng.uniform(-1.0f, 1.0f);
      const float d2 = d * d;
      const float inv_2d = 1.0f / (2.0f * d);
      const std::size_t j0 = n % 3 == 0 ? 17 : 0;

      std::vector<MergeGeom> ref(n), simd(n);
      k::force_backend(k::Backend::kScalar);
      k::merge_geometry_row(r0, dr, j0, n, cr, d2, inv_2d, ref.data());
      k::force_backend(b);
      k::merge_geometry_row(r0, dr, j0, n, cr, d2, inv_2d, simd.data());
      for (std::size_t i = 0; i < n; ++i) {
        expect_bits_eq(ref[i].r1, simd[i].r1, "r1", i);
        expect_bits_eq(ref[i].theta1, simd[i].theta1, "theta1", i);
        expect_bits_eq(ref[i].r2, simd[i].r2, "r2", i);
        expect_bits_eq(ref[i].theta2, simd[i].theta2, "theta2", i);
      }
    }
  });
}

TEST(Kernels, MergeGeometryRowClampEdges) {
  // Degenerate geometry drives the acos argument outside [-1, 1]; the
  // clamp ternaries must blend identically.
  for_each_simd_backend([&](k::Backend b) {
    const std::size_t n = 11;
    const float d = 1e-3f;
    std::vector<MergeGeom> ref(n), simd(n);
    k::force_backend(k::Backend::kScalar);
    k::merge_geometry_row(0.0f, 0.25f, 0, n, 2.0f * d, d * d,
                          1.0f / (2.0f * d), ref.data());
    k::force_backend(b);
    k::merge_geometry_row(0.0f, 0.25f, 0, n, 2.0f * d, d * d,
                          1.0f / (2.0f * d), simd.data());
    for (std::size_t i = 0; i < n; ++i) {
      expect_bits_eq(ref[i].theta1, simd[i].theta1, "theta1", i);
      expect_bits_eq(ref[i].theta2, simd[i].theta2, "theta2", i);
    }
  });
}

TEST(Kernels, Neville4ManyMatchesScalarBitForBit) {
  for_each_simd_backend([&](k::Backend b) {
    Rng rng;
    for (const std::size_t n : kSizes) {
      cf32 y[4];
      for (cf32& v : y) v = rng.complex(-2.0f, 2.0f);
      std::vector<float> t(n);
      for (float& v : t) v = rng.uniform(0.4f, 2.6f);
      std::vector<cf32> ref(n), simd(n);
      k::force_backend(k::Backend::kScalar);
      k::neville4_many(y, t.data(), ref.data(), n);
      k::force_backend(b);
      k::neville4_many(y, t.data(), simd.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        expect_bits_eq(ref[i], simd[i], "neville4_many", i);
    }
  });
}

TEST(Kernels, Neville4RowsMatchesScalarBitForBit) {
  for_each_simd_backend([&](k::Backend b) {
    Rng rng;
    for (const std::size_t n : kSizes) {
      std::vector<cf32> rows[4];
      for (auto& r : rows) {
        r.resize(n);
        for (cf32& v : r) v = rng.complex(-3.0f, 3.0f);
      }
      std::vector<float> t(n);
      for (float& v : t) v = rng.uniform(0.9f, 2.1f);
      std::vector<cf32> ref(n), simd(n);
      k::force_backend(k::Backend::kScalar);
      k::neville4_rows(rows[0].data(), rows[1].data(), rows[2].data(),
                       rows[3].data(), t.data(), ref.data(), n);
      k::force_backend(b);
      k::neville4_rows(rows[0].data(), rows[1].data(), rows[2].data(),
                       rows[3].data(), t.data(), simd.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        expect_bits_eq(ref[i], simd[i], "neville4_rows", i);
    }
  });
}

TEST(Kernels, CriterionTermsMatchesScalarBitForBit) {
  for_each_simd_backend([&](k::Backend b) {
    Rng rng;
    for (const std::size_t n : kSizes) {
      std::vector<cf32> minus(n), plus(n);
      for (cf32& v : minus) v = rng.complex(-4.0f, 4.0f);
      for (cf32& v : plus) v = rng.complex(-4.0f, 4.0f);
      std::vector<float> ref(n), simd(n);
      k::force_backend(k::Backend::kScalar);
      k::criterion_terms(minus.data(), plus.data(), ref.data(), n);
      k::force_backend(b);
      k::criterion_terms(minus.data(), plus.data(), simd.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        expect_bits_eq(ref[i], simd[i], "criterion_terms", i);
    }
  });
}

TEST(Kernels, GbpContribRowMatchesScalarBitForBit) {
  for_each_simd_backend([&](k::Backend b) {
    Rng rng;
    for (const std::size_t n : kSizes) {
      GbpGrid g{};
      g.r0 = 1000.0f;
      g.inv_dr = 1.0f;
      g.n_range = static_cast<int>(n);
      g.k_phase = 25.0;
      std::vector<cf32> pulse(n);
      for (cf32& v : pulse) v = rng.complex(-1.0f, 1.0f);
      std::vector<float> px(n), py(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Mix in-swath pixels with out-of-swath ones (validity mask).
        const float r = rng.uniform(990.0f, 1010.0f + 2.0f * float(n));
        px[i] = r * 0.6f;
        py[i] = r * 0.8f;
      }
      std::vector<cf32> ref(n, cf32{0.5f, -0.25f});
      std::vector<cf32> simd = ref; // same nonzero accumulator start
      k::force_backend(k::Backend::kScalar);
      k::gbp_contrib_row(px.data(), py.data(), 3.5f, pulse.data(), g,
                         ref.data(), n);
      k::force_backend(b);
      k::gbp_contrib_row(px.data(), py.data(), 3.5f, pulse.data(), g,
                         simd.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        expect_bits_eq(ref[i], simd[i], "gbp_contrib_row", i);
    }

    // A pixel whose range is NaN, infinite or more than 2^31 bins past r0
    // adds nothing, both in a full vector quantum (lane 1) and in the
    // scalar tail (lane 12 of 13: past the last 4- and 8-lane quantum).
    GbpGrid g{};
    g.r0 = 1000.0f;
    g.inv_dr = 1.0f;
    g.n_range = 64;
    g.k_phase = 25.0;
    const std::vector<cf32> pulse(64, cf32{0.5f, 0.25f});
    const float inf = std::numeric_limits<float>::infinity();
    constexpr std::size_t n = 13;
    constexpr std::size_t kGuardLanes[] = {1, n - 1};
    for (const float guard : {std::numeric_limits<float>::quiet_NaN(), inf,
                              -inf, 1e30f, 1e15f}) {
      std::vector<float> px(n), py(n, 0.0f);
      for (std::size_t i = 0; i < n; ++i)
        px[i] = 1010.0f + 2.0f * static_cast<float>(i);
      for (const std::size_t l : kGuardLanes) px[l] = guard;
      const cf32 start{0.5f, -0.25f};
      for (const k::Backend run : {k::Backend::kScalar, b}) {
        std::vector<cf32> acc(n, start);
        k::force_backend(run);
        k::gbp_contrib_row(px.data(), py.data(), 3.5f, pulse.data(), g,
                           acc.data(), n);
        for (const std::size_t l : kGuardLanes)
          expect_bits_eq(acc[l], start, "gbp_contrib_row guard", l);
        EXPECT_FALSE(same_bits(acc[0], start)); // in-swath lanes still add
      }
    }
  });
}

const k::detail::KernelTable* table_of(k::Backend b) {
  switch (b) {
    case k::Backend::kScalar: return k::detail::scalar_table();
    case k::Backend::kSse2: return k::detail::sse2_table();
    case k::Backend::kAvx2: return k::detail::avx2_table();
  }
  return nullptr;
}

/// The GBP grid sar::gbp builds for `p`.
GbpGrid grid_of(const RadarParams& p) {
  GbpGrid g{};
  g.r0 = static_cast<float>(p.near_range_m);
  g.inv_dr = static_cast<float>(1.0 / p.range_bin_m);
  g.n_range = static_cast<int>(p.n_range);
  g.k_phase = 4.0 * kPi / p.wavelength_m();
  return g;
}

/// Pushes every float range of `p`'s swath (one bin of margin on each
/// side) through gbp_contrib_row and the phase lane mask of each SIMD
/// backend, comparing the bits with the scalar backend. The pixel sits at
/// px = r, py = 0 with the pulse at x = 0, so the kernel's range is
/// sqrtf(r * r) == r exactly; every pulse sample is 1 and the accumulator
/// starts at 0, so each output is the lane's carrier rotation itself.
/// Returns the number of lanes each backend sent to the libm fallback.
std::vector<std::size_t> check_every_swath_range(const RadarParams& p) {
  const GbpGrid g = grid_of(p);
  const float dr = static_cast<float>(p.range_bin_m);
  const float lo = g.r0 - 1.5f * dr;
  const float hi = g.r0 + (static_cast<float>(p.n_range) + 0.5f) * dr;
  const std::vector<cf32> pulse(p.n_range, cf32{1.0f, 0.0f});
  const std::vector<float> zeros(4096, 0.0f);
  const std::vector<k::Backend> backends = simd_backends();
  std::vector<std::size_t> fallbacks(backends.size(), 0);
  std::vector<std::size_t> mismatches(backends.size(), 0);
  const k::Backend before = k::active();
  const k::detail::KernelTable* scalar = table_of(k::Backend::kScalar);

  std::vector<float> r;
  std::vector<cf32> ref, rot_ref, out, rot;
  std::vector<std::uint8_t> fast(zeros.size());
  for (float next = lo; next < hi;) {
    r.clear();
    while (r.size() < zeros.size() && next < hi) {
      r.push_back(next);
      next = std::nextafter(next, hi);
    }
    const std::size_t n = r.size();
    ref.assign(n, cf32{});
    rot_ref.resize(n);
    k::force_backend(k::Backend::kScalar);
    k::gbp_contrib_row(r.data(), zeros.data(), 0.0f, pulse.data(), g,
                       ref.data(), n);
    scalar->gbp_phase_row(r.data(), g.k_phase, rot_ref.data(), fast.data(), n);
    for (std::size_t b = 0; b < backends.size(); ++b) {
      out.assign(n, cf32{});
      rot.resize(n);
      k::force_backend(backends[b]);
      k::gbp_contrib_row(r.data(), zeros.data(), 0.0f, pulse.data(), g,
                         out.data(), n);
      const k::detail::KernelTable* simd = table_of(backends[b]);
      simd->gbp_phase_row(r.data(), g.k_phase, rot.data(), fast.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        fallbacks[b] += fast[i] == 0 ? 1 : 0;
        if (same_bits(ref[i], out[i]) && same_bits(rot_ref[i], rot[i]))
          continue;
        if (mismatches[b]++ == 0)
          ADD_FAILURE() << k::backend_name(backends[b]) << ": range "
                        << r[i] << " differs from libm";
      }
    }
  }
  k::force_backend(before);
  for (std::size_t b = 0; b < backends.size(); ++b)
    EXPECT_EQ(mismatches[b], 0u) << k::backend_name(backends[b]);
  return fallbacks;
}

TEST(Kernels, GbpPhaseEveryRangeOfTheTestSwathMatchesLibm) {
  // lambda = 2 m: k = 2*pi, so the phase is 2*pi * range and the
  // fallback path runs on this swath.
  const RadarParams p = test_params(256, 251);
  for (const std::size_t fallbacks : check_every_swath_range(p))
    EXPECT_GT(fallbacks, 0u);
}

TEST(Kernels, GbpPhaseEveryRangeOfThePaperSwathMatchesLibm) {
  check_every_swath_range(paper_params());
}

TEST(Kernels, GbpPhaseFallsBackOutsideTheExactReduction) {
  // Guard lanes inside one full vector quantum (not the scalar tail):
  // 1e30 puts the quotient far above 2^26, inf and NaN are not finite.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> range = {450, 1e30f, inf, 451, nan, -inf, 452, 453};
  const std::vector<std::size_t> guard = {1, 2, 4, 5};
  const double k_phase = 2.0 * kPi;
  const std::size_t n = range.size();
  std::vector<cf32> ref(n), rot(n);
  std::vector<std::uint8_t> fast(n);
  const k::detail::KernelTable* scalar = table_of(k::Backend::kScalar);
  scalar->gbp_phase_row(range.data(), k_phase, ref.data(), fast.data(), n);
  for (const k::Backend b : simd_backends()) {
    SCOPED_TRACE(k::backend_name(b));
    const k::detail::KernelTable* simd = table_of(b);
    simd->gbp_phase_row(range.data(), k_phase, rot.data(), fast.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      expect_bits_eq(ref[i], rot[i], "gbp_phase_row", i);
    for (const std::size_t i : guard) EXPECT_EQ(fast[i], 0) << "lane " << i;
  }
}

TEST(Kernels, GbpContribRowFallsBackForHugeAndNonFiniteWavenumbers) {
  // The same guards through the row kernel: an in-swath range whose
  // phase k * range is far beyond 2^26 turns, or is infinite.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double k_phase : {1e30, inf}) {
    for_each_simd_backend([&](k::Backend b) {
      GbpGrid g{};
      g.r0 = 400.0f;
      g.inv_dr = 2.0f;
      g.n_range = 64;
      g.k_phase = k_phase;
      const std::vector<cf32> pulse(64, cf32{0.5f, 0.25f});
      std::vector<float> px(16), py(16, 0.0f);
      for (std::size_t i = 0; i < px.size(); ++i)
        px[i] = 401.0f + 1.5f * static_cast<float>(i);
      std::vector<cf32> ref(px.size()), simd(px.size());
      k::force_backend(k::Backend::kScalar);
      k::gbp_contrib_row(px.data(), py.data(), 0.0f, pulse.data(), g,
                         ref.data(), px.size());
      k::force_backend(b);
      k::gbp_contrib_row(px.data(), py.data(), 0.0f, pulse.data(), g,
                         simd.data(), px.size());
      for (std::size_t i = 0; i < px.size(); ++i)
        expect_bits_eq(ref[i], simd[i], "gbp_contrib_row", i);
    });
  }
}

/// nearest_index_row of the scalar backend and of every SIMD backend on
/// the same inputs; returns the number of mismatching entries per backend.
std::size_t nearest_index_mismatches(const std::vector<MergeGeom>& geom,
                                     const ChildGrid& g, float shift1,
                                     float shift2, NearestIndexRow& ref,
                                     NearestIndexRow& simd) {
  const std::size_t n = geom.size();
  k::force_backend(k::Backend::kScalar);
  k::nearest_index_row(geom.data(), n, g, shift1, shift2, ref);
  std::size_t mismatches = 0;
  for (const k::Backend b : simd_backends()) {
    k::force_backend(b);
    k::nearest_index_row(geom.data(), n, g, shift1, shift2, simd);
    for (std::size_t plane = 0; plane < 4; ++plane)
      for (std::size_t i = 0; i < n; ++i)
        if (ref.planes[plane * ref.n + i] !=
                simd.planes[plane * simd.n + i] &&
            mismatches++ == 0)
          ADD_FAILURE() << k::backend_name(b) << ": plane " << plane
                        << " entry " << i;
  }
  return mismatches;
}

/// Every range bin of every parent theta row of every merge level of `p`,
/// with and without a per-pair shift: each SIMD backend's indices must equal
/// the scalar ones. Returns {valid, invalid} child samples seen.
std::pair<std::size_t, std::size_t> check_every_swath_index(
    const RadarParams& p) {
  const k::Backend before = k::active();
  const float r0 = static_cast<float>(p.near_range_m);
  const float dr = static_cast<float>(p.range_bin_m);
  std::vector<MergeGeom> geom(p.n_range);
  NearestIndexRow ref(p.n_range), simd(p.n_range);
  std::size_t mismatches = 0, valid = 0, invalid = 0;
  for (std::size_t level = 1; level <= p.merge_levels(); ++level) {
    const MergeLevelGeom lg = merge_level_geom(p, level);
    for (std::size_t ti = 0; ti < lg.n_theta_parent; ++ti) {
      const float cr =
          2.0f * lg.d * fastmath::poly_cos(lg.theta_of_row(p, ti));
      k::force_backend(k::Backend::kScalar);
      k::merge_geometry_row(r0, dr, 0, p.n_range, cr, lg.d2, lg.inv_2d,
                            geom.data());
      for (const float shift_bins : {0.0f, 2.37f}) {
        mismatches +=
            nearest_index_mismatches(geom, lg.child, -0.5f * shift_bins * dr,
                                     0.5f * shift_bins * dr, ref, simd);
        for (std::size_t i = 0; i < p.n_range; ++i) {
          (ref.it1()[i] >= 0 ? valid : invalid) += 1;
          (ref.it2()[i] >= 0 ? valid : invalid) += 1;
        }
      }
    }
  }
  k::force_backend(before);
  EXPECT_EQ(mismatches, 0u);
  return {valid, invalid};
}

TEST(Kernels, NearestIndexRowMatchesScalarOnEveryBinOfTheTestSwath) {
  const auto [valid, invalid] =
      check_every_swath_index(test_params(256, 251));
  // Both outcomes occur, so both lane paths were compared.
  EXPECT_GT(valid, 0u);
  EXPECT_GT(invalid, 0u);
}

TEST(Kernels, NearestIndexRowMatchesScalarOnEveryBinOfThePaperSwath) {
  const auto [valid, invalid] = check_every_swath_index(paper_params());
  EXPECT_GT(valid, 0u);
  EXPECT_GT(invalid, 0u);
}

TEST(Kernels, NearestIndexRowGuardLanesAreInvalidInEveryBackend) {
  // 19 entries: two full vector quanta in either SIMD backend, then a
  // scalar tail of 3. Guard values sit inside the first full vector and in
  // the tail, in the range and in the angle of either child.
  const RadarParams p = test_params(64, 101);
  const MergeLevelGeom lg = merge_level_geom(p, 3);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float r_mid =
      static_cast<float>(p.near_range_m + 50.0 * p.range_bin_m);
  const float th_mid = static_cast<float>(p.theta_center_rad);
  std::vector<MergeGeom> geom(19, MergeGeom{r_mid, th_mid, r_mid, th_mid});
  geom[1].r1 = nan;
  geom[2].theta1 = inf;
  geom[3].r2 = -inf;
  geom[4].theta2 = 1e30f;
  geom[5].r1 = 1e30f;
  geom[6].r2 = -1e30f;
  geom[16].theta1 = nan;
  geom[17].r1 = inf;
  geom[18].r2 = 1e30f;
  const std::vector<std::size_t> guard1 = {1, 2, 5, 16, 17};
  const std::vector<std::size_t> guard2 = {3, 4, 6, 18};

  NearestIndexRow ref(geom.size()), simd(geom.size());
  const k::Backend before = k::active();
  EXPECT_EQ(nearest_index_mismatches(geom, lg.child, 0.0f, 0.0f, ref, simd),
            0u);
  k::force_backend(before);
  const auto guarded = [](const std::vector<std::size_t>& g, std::size_t i) {
    return std::find(g.begin(), g.end(), i) != g.end();
  };
  for (std::size_t i = 0; i < geom.size(); ++i) {
    EXPECT_EQ(ref.it1()[i] < 0, guarded(guard1, i)) << "child 1 entry " << i;
    EXPECT_EQ(ref.it2()[i] < 0, guarded(guard2, i)) << "child 2 entry " << i;
    // it and ir are -1 together.
    EXPECT_EQ(ref.ir1()[i] < 0, ref.it1()[i] < 0) << i;
    EXPECT_EQ(ref.ir2()[i] < 0, ref.it2()[i] < 0) << i;
  }

  // A non-finite per-pair shift invalidates that child's whole row.
  EXPECT_EQ(nearest_index_mismatches(geom, lg.child, nan, inf, ref, simd),
            0u);
  k::force_backend(before);
  for (std::size_t i = 0; i < geom.size(); ++i) {
    EXPECT_EQ(ref.it1()[i], -1) << i;
    EXPECT_EQ(ref.it2()[i], -1) << i;
  }
}

TEST(Kernels, ForceBackendRoundTrip) {
  const k::Backend before = k::active();
  k::force_backend(k::Backend::kScalar);
  EXPECT_EQ(k::active(), k::Backend::kScalar);
  EXPECT_STREQ(k::active_name(), "scalar");
  k::force_backend(before);
  EXPECT_EQ(k::active(), before);
}

} // namespace
} // namespace esarp::sar
