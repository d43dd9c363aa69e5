// Tests for the FFBP implementation: merge geometry (paper eqs. 1-4),
// level bookkeeping, focusing quality versus GBP, interpolation variants,
// and operation accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/stats.hpp"
#include "sar/ffbp.hpp"
#include "sar/gbp.hpp"
#include "sar/interp.hpp"
#include "sar/merge_kernel.hpp"
#include "sar/scene.hpp"

namespace esarp::sar {
namespace {

std::pair<std::size_t, std::size_t> find_peak(const Array2D<cf32>& img) {
  std::pair<std::size_t, std::size_t> best{0, 0};
  double mag = -1.0;
  for (std::size_t i = 0; i < img.rows(); ++i)
    for (std::size_t j = 0; j < img.cols(); ++j)
      if (std::abs(img(i, j)) > mag) {
        mag = std::abs(img(i, j));
        best = {i, j};
      }
  return best;
}

TEST(MergeGeometry, MatchesLawOfCosinesReference) {
  // Pick a point P in the plane; (r, theta) about the parent centre at the
  // origin must map to the exact polar coordinates of P about the child
  // centres at (-d, 0) and (+d, 0).
  const double d = 8.0;
  for (double theta = 1.35; theta < 1.85; theta += 0.05) {
    for (double r = 4000.0; r < 6000.0; r += 333.0) {
      const double px = r * std::cos(theta);
      const double py = r * std::sin(theta);
      const double r1_ref = std::hypot(px + d, py);
      const double r2_ref = std::hypot(px - d, py);
      const double th1_ref = std::atan2(py, px + d);
      const double th2_ref = std::atan2(py, px - d);

      const float cr =
          2.0f * static_cast<float>(d) * std::cos(static_cast<float>(theta));
      const MergeGeom g = merge_geometry(
          static_cast<float>(r), cr, static_cast<float>(d * d),
          static_cast<float>(1.0 / (2.0 * d)));
      EXPECT_NEAR(g.r1, r1_ref, 0.05) << "r=" << r << " theta=" << theta;
      EXPECT_NEAR(g.r2, r2_ref, 0.05);
      EXPECT_NEAR(g.theta1, th1_ref, 2e-4);
      EXPECT_NEAR(g.theta2, th2_ref, 2e-4);
    }
  }
}

TEST(MergeGeometry, BroadsideIsSymmetric) {
  // At theta = pi/2 the two children see mirror-symmetric coordinates.
  const float d = 4.0f;
  const MergeGeom g = merge_geometry(5000.0f, 0.0f, d * d, 1.0f / (2 * d));
  EXPECT_FLOAT_EQ(g.r1, g.r2);
  EXPECT_NEAR(g.theta1 + g.theta2, 3.14159265f, 1e-4f);
}

TEST(RangePhaseTable, UnitModulusAndCorrectPhase) {
  RadarParams p = test_params(4, 64);
  const auto table = range_phase_table(p);
  ASSERT_EQ(table.size(), p.n_range);
  const double k = 4.0 * kPi / p.wavelength_m();
  for (std::size_t j = 0; j < table.size(); j += 7) {
    EXPECT_NEAR(std::abs(table[j]), 1.0f, 1e-5f);
    const double expect = std::fmod(
        k * (p.near_range_m + static_cast<double>(j) * p.range_bin_m),
        2.0 * kPi);
    EXPECT_NEAR(std::remainder(std::arg(table[j]) - expect, 2.0 * kPi), 0.0,
                1e-4);
  }
}

TEST(InitialSubapertures, OnePerPulseWithDeramp) {
  RadarParams p = test_params(8, 32);
  Array2D<cf32> data(8, 32);
  data(3, 10) = {2.0f, 0.0f};
  const auto subs = initial_subapertures(data, p);
  ASSERT_EQ(subs.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(subs[i].level, 0u);
    EXPECT_EQ(subs[i].n_theta(), 1u);
    EXPECT_EQ(subs[i].first_pulse, i);
    EXPECT_DOUBLE_EQ(subs[i].x_center, p.pulse_x(i));
  }
  // Deramp preserves magnitude.
  EXPECT_NEAR(std::abs(subs[3].data(0, 10)), 2.0f, 1e-5f);
  EXPECT_NEAR(std::abs(subs[3].data(0, 11)), 0.0f, 1e-6f);
}

TEST(MergePair, ValidatesAdjacency) {
  RadarParams p = test_params(8, 32);
  Array2D<cf32> data(8, 32);
  auto subs = initial_subapertures(data, p);
  FfbpOptions opt;
  EXPECT_NO_THROW((void)merge_pair(subs[0], subs[1], p, opt));
  EXPECT_THROW((void)merge_pair(subs[0], subs[2], p, opt),
               ContractViolation); // not adjacent
  EXPECT_THROW((void)merge_pair(subs[1], subs[0], p, opt),
               ContractViolation); // wrong order
}

TEST(MergePair, DoublesAngularResolution) {
  RadarParams p = test_params(8, 32);
  Array2D<cf32> data(8, 32);
  auto subs = initial_subapertures(data, p);
  FfbpOptions opt;
  OpCounts tally;
  const auto parent = merge_pair(subs[2], subs[3], p, opt, &tally);
  EXPECT_EQ(parent.level, 1u);
  EXPECT_EQ(parent.n_theta(), 2u);
  EXPECT_EQ(parent.n_pulses, 2u);
  EXPECT_DOUBLE_EQ(parent.x_center,
                   0.5 * (subs[2].x_center + subs[3].x_center));
  EXPECT_GT(tally.flops(), 0u);
}

TEST(Ffbp, FocusesSingleTargetNearGbpPeak) {
  RadarParams p = test_params(64, 201);
  Scene s;
  s.targets = {{2.0, p.near_range_m + 120.0 * p.range_bin_m, 1.0f}};
  const auto data = simulate_compressed(p, s);
  const auto fres = ffbp(data, p);
  const auto gres = gbp(data, p);
  const auto [fi, fj] = find_peak(fres.image.data);
  const auto [gi, gj] = find_peak(gres.image.data);
  EXPECT_NEAR(static_cast<double>(fi), static_cast<double>(gi), 3.0);
  EXPECT_NEAR(static_cast<double>(fj), static_cast<double>(gj), 2.0);
}

TEST(Ffbp, RunsAllLevelsWithConstantStorage) {
  RadarParams p = test_params(32, 101);
  const auto data = simulate_compressed(p, six_target_scene(p));
  const auto res = ffbp(data, p);
  EXPECT_EQ(res.image.n_theta(), 32u);
  EXPECT_EQ(res.image.n_range(), 101u);
  ASSERT_EQ(res.levels.size(), 5u);
  for (const auto& l : res.levels) {
    EXPECT_EQ(l.pixels, 32u * 101u); // constant pyramid size
    EXPECT_GT(l.ops.flops(), 0u);
  }
}

TEST(Ffbp, GbpHasBetterQualityThanNearestNeighbourFfbp) {
  // The paper's Fig. 7 claim: FFBP with simplified interpolation degrades
  // image quality relative to GBP. Entropy (lower = sharper) quantifies it.
  RadarParams p = test_params(64, 201);
  const auto data = simulate_compressed(p, six_target_scene(p));
  const auto f = ffbp(data, p);
  const auto g = gbp(data, p);
  EXPECT_GT(image_entropy(f.image.data), image_entropy(g.image.data));
  // But FFBP still focuses: far sharper than raw data.
  EXPECT_LT(image_entropy(f.image.data), image_entropy(data));
}

TEST(Ffbp, PhaseCompensationImprovesQuality) {
  RadarParams p = test_params(64, 201);
  const auto data = simulate_compressed(p, six_target_scene(p));
  FfbpOptions plain;
  FfbpOptions comp;
  comp.phase_compensate = true;
  const auto f_plain = ffbp(data, p, plain);
  const auto f_comp = ffbp(data, p, comp);
  EXPECT_LT(image_entropy(f_comp.image.data),
            image_entropy(f_plain.image.data));
}

TEST(Ffbp, CubicInterpolationImprovesQualityOverNearest) {
  // "the quality ... could be considerably improved by using more complex
  // interpolation kernels such as cubic interpolation" (paper Section V-B).
  RadarParams p = test_params(64, 201);
  const auto data = simulate_compressed(p, six_target_scene(p));
  FfbpOptions nn;
  FfbpOptions cubic;
  cubic.interp = Interp::kCubic;
  const auto f_nn = ffbp(data, p, nn);
  const auto f_cubic = ffbp(data, p, cubic);
  const auto g = gbp(data, p);
  const double err_nn = relative_rmse(f_nn.image.data, g.image.data);
  const double err_cubic = relative_rmse(f_cubic.image.data, g.image.data);
  EXPECT_LT(err_cubic, err_nn);
}

TEST(Ffbp, InterpolationVariantsCostMore) {
  FfbpOptions nn, lin, cub, comp;
  lin.interp = Interp::kLinear;
  cub.interp = Interp::kCubic;
  comp.phase_compensate = true;
  const auto base = merge_pixel_ops(nn).flops();
  EXPECT_GT(merge_pixel_ops(lin).flops(), base);
  EXPECT_GT(merge_pixel_ops(cub).flops(), merge_pixel_ops(lin).flops());
  EXPECT_GT(merge_pixel_ops(comp).flops(), base);
}

TEST(Ffbp, PhaseCompensationRequiresNearest) {
  RadarParams p = test_params(8, 32);
  Array2D<cf32> data(8, 32);
  auto subs = initial_subapertures(data, p);
  FfbpOptions bad;
  bad.interp = Interp::kCubic;
  bad.phase_compensate = true;
  EXPECT_THROW((void)merge_pair(subs[0], subs[1], p, bad),
               ContractViolation);
}

TEST(Ffbp, ZeroInputGivesZeroImage) {
  RadarParams p = test_params(16, 51);
  Array2D<cf32> data(16, 51);
  const auto res = ffbp(data, p);
  for (const auto& px : res.image.data.flat())
    EXPECT_EQ(std::abs(px), 0.0f);
}

TEST(Ffbp, OpAccountingMatchesLevelSum) {
  RadarParams p = test_params(16, 51);
  const auto data = simulate_compressed(p, six_target_scene(p));
  const auto res = ffbp(data, p);
  OpCounts sum;
  for (const auto& l : res.levels) sum += l.ops;
  EXPECT_EQ(sum, res.ops);
  EXPECT_EQ(res.host_work.scattered_reads,
            2ull * res.levels.size() * p.n_pulses * p.n_range);
}

TEST(Ffbp, MergeLevelGeomMatchesMergePairConstants) {
  RadarParams p = test_params(16, 51);
  for (std::size_t level = 1; level <= p.merge_levels(); ++level) {
    const MergeLevelGeom g = merge_level_geom(p, level);
    const double child_span =
        static_cast<double>(std::size_t{1} << (level - 1)) *
        p.pulse_spacing_m;
    EXPECT_FLOAT_EQ(g.d, static_cast<float>(0.5 * child_span));
    EXPECT_EQ(g.n_theta_parent, std::size_t{1} << level);
    EXPECT_EQ(g.child.n_theta, static_cast<int>(g.n_theta_parent / 2));
  }
}

/// A recorded track: every pulse displaced along track by its own amount,
/// so every subaperture pair of every level has its own child spacing.
FlightPathError wobbly_track(const RadarParams& p) {
  FlightPathError track;
  track.dx.resize(p.n_pulses);
  for (std::size_t i = 0; i < p.n_pulses; ++i)
    track.dx[i] = 0.03 * std::sin(0.7 * static_cast<double>(i)) +
                  0.001 * static_cast<double>(i % 5);
  return track;
}

TEST(Ffbp, RecordedTrackMatchesHandChainedMergePairsBitForBit) {
  // merge_level reuses a geometry row only while the pair's float d has
  // the same bits; on this track the pairs' d differ, so every pair must
  // get its own geometry, exactly as chained merge_pair calls compute it.
  RadarParams p = test_params(32, 101);
  const FlightPathError track = wobbly_track(p);
  const auto data = simulate_compressed(p, six_target_scene(p), track);
  const auto res = ffbp(data, p, {}, &track);

  auto subs = initial_subapertures(data, p, &track);
  std::size_t distinct_d_levels = 0;
  while (subs.size() > 1) {
    std::vector<SubapertureImage> next;
    std::vector<float> d;
    for (std::size_t i = 0; i + 1 < subs.size(); i += 2) {
      next.push_back(merge_pair(subs[i], subs[i + 1], p, {}));
      d.push_back(static_cast<float>(
          0.5 * (subs[i + 1].x_center - subs[i].x_center)));
    }
    if (d.size() > 1 && d[0] != d[1]) ++distinct_d_levels;
    subs = std::move(next);
  }
  EXPECT_GT(distinct_d_levels, 0u);
  EXPECT_EQ(res.image.data, subs.front().data);
  EXPECT_DOUBLE_EQ(res.image.x_center, subs.front().x_center);
}

TEST(Ffbp, MergeLevelWithShiftsMatchesCompensatedPairs) {
  // Per-pair flight-path shifts ride on a geometry row shared by the
  // whole level (nominal track), for every interpolation kernel.
  RadarParams p = test_params(16, 51);
  const auto data = simulate_compressed(p, six_target_scene(p));
  const auto l0 = initial_subapertures(data, p);
  const auto l1 = merge_level(l0, p, {});
  const std::vector<float> shifts = {0.0f, 1.5f, -0.75f, 3.0f};
  for (const Interp interp :
       {Interp::kNearest, Interp::kLinear, Interp::kCubic}) {
    FfbpOptions opt;
    opt.interp = interp;
    OpCounts level_ops;
    OpCounts pair_ops;
    const auto l2 = merge_level(l1, p, opt, shifts, &level_ops);
    ASSERT_EQ(l2.size(), shifts.size());
    for (std::size_t k = 0; k < shifts.size(); ++k) {
      const auto one = merge_pair_compensated(l1[2 * k], l1[2 * k + 1], p,
                                              opt, shifts[k], &pair_ops);
      EXPECT_EQ(l2[k].data, one.data) << "pair " << k;
    }
    EXPECT_EQ(level_ops, pair_ops);
  }
}

TEST(SampleChild, GuardValuesContributeZeroWithoutFetching) {
  // A NaN, infinite or huge position must be rejected in float, before
  // any int conversion could turn it into an index.
  const RadarParams p = test_params(16, 51);
  const ChildGrid g = make_child_grid(p, 4);
  const float r_ok =
      static_cast<float>(p.near_range_m + 20.0 * p.range_bin_m);
  const float th_ok = static_cast<float>(p.theta_center_rad);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::size_t fetches = 0;
  const auto fetch = [&](int, int) {
    ++fetches;
    return cf32{1.0f, 1.0f};
  };
  struct Variant {
    Interp interp;
    bool phase_compensate;
  };
  for (const Variant v : {Variant{Interp::kNearest, false},
                          Variant{Interp::kNearest, true},
                          Variant{Interp::kLinear, false},
                          Variant{Interp::kCubic, false}}) {
    SCOPED_TRACE(static_cast<int>(v.interp));
    // Control: the in-range position does fetch.
    (void)sample_child(g, r_ok, th_ok, v.interp, v.phase_compensate, fetch);
    EXPECT_GT(fetches, 0u);
    fetches = 0;
    for (const float guard : {nan, inf, -inf, 1e30f, -1e30f}) {
      const cf32 by_range =
          sample_child(g, guard, th_ok, v.interp, v.phase_compensate, fetch);
      const cf32 by_angle =
          sample_child(g, r_ok, guard, v.interp, v.phase_compensate, fetch);
      EXPECT_EQ(by_range, cf32{}) << "range " << guard;
      EXPECT_EQ(by_angle, cf32{}) << "angle " << guard;
    }
    EXPECT_EQ(fetches, 0u);
  }
}

TEST(Neville, ExactOnCubicPolynomials) {
  // Neville's 4-point interpolation reproduces any cubic exactly.
  const auto poly = [](float x) {
    return cf32{2.0f + x * (0.5f + x * (-1.0f + 0.25f * x)),
                -1.0f + x * (1.0f + x * (0.5f - 0.1f * x))};
  };
  cf32 y[4] = {poly(0), poly(1), poly(2), poly(3)};
  for (float t = 0.0f; t <= 3.01f; t += 0.125f) {
    const cf32 v = neville4(y, t);
    const cf32 e = poly(t);
    EXPECT_NEAR(v.real(), e.real(), 1e-4f) << "t=" << t;
    EXPECT_NEAR(v.imag(), e.imag(), 1e-4f) << "t=" << t;
  }
}

TEST(Neville, InterpolatesNodesExactly) {
  cf32 y[4] = {{1, 2}, {3, -4}, {-5, 6}, {7, 8}};
  for (int i = 0; i < 4; ++i) {
    const cf32 v = neville4(y, static_cast<float>(i));
    EXPECT_NEAR(v.real(), y[i].real(), 1e-4f);
    EXPECT_NEAR(v.imag(), y[i].imag(), 1e-4f);
  }
}

TEST(Lerp, MidpointAndEndpoints) {
  const cf32 a{1.0f, 0.0f}, b{3.0f, 4.0f};
  EXPECT_EQ(lerp(a, b, 0.0f), a);
  EXPECT_EQ(lerp(a, b, 1.0f), b);
  const cf32 mid = lerp(a, b, 0.5f);
  EXPECT_FLOAT_EQ(mid.real(), 2.0f);
  EXPECT_FLOAT_EQ(mid.imag(), 2.0f);
}

} // namespace
} // namespace esarp::sar
