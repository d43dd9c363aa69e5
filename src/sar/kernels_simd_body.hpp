// Width-generic SIMD implementation of the unified kernel API, shared by
// the SSE2 (4 float / 2 double lanes) and AVX2 (8 float / 4 double lanes)
// backend translation units. Each TU defines a vector-trait struct V with
// the intrinsics of its instruction set and instantiates SimdKernels<V>;
// the traits live in anonymous namespaces, so the instantiations are
// TU-local (no ODR interaction between arch-specific object files).
//
// BIT-EXACTNESS CONTRACT: every function here replicates its scalar
// reference (sar/interp.hpp, sar/merge_kernel.hpp, common/fastmath.hpp,
// sar/gbp.hpp) operation for operation — the same association (a*b*c is
// (a*b)*c exactly where the scalar source writes it that way), ternaries
// as mask blends evaluating both arms, the rsqrt bit trick on integer
// lanes, truncating float->int conversion, and no FMA contraction (all
// kernel TUs build with -ffp-contract=off, and the AVX2 TU deliberately
// enables -mavx2 WITHOUT -mfma). IEEE sqrtps matches std::sqrt(float)
// exactly, so the GBP range vectorizes.
//
// The one exception is the GBP carrier phase, {cos, sin} of
// fmod(k * range, 2*pi) in double libm rounded to float: it cannot be
// replicated operation for operation, so it is computed differently and
// proven equal per lane (gbp_phase_lanes). fmod is exact, so it is
// reproduced exactly; cos/sin come from the fdlibm kernel polynomials,
// whose double result v is then rounded to float from both ends of
// [v - 2^-50, v + 2^-50]. libm's double is assumed within 1 ulp
// (<= 2^-52) of the true value, and v is within 2^-52 of it too (the
// fdlibm kernels are accurate to under 1 ulp; 0.4 * 2^-52 measured against
// long double), so libm's double lies inside the bracket. Where both ends give the same float, rounding being
// monotonic, libm's double rounds to that same float. Lanes whose bracket
// straddles a float rounding boundary, or whose fmod reduction is outside
// the exact range, recompute the scalar libm expression. Changing any
// expression here requires re-running the cross-backend tests in
// tests/test_kernels.cpp, including the exhaustive phase test.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "sar/kernels_impl.hpp"

static_assert(sizeof(esarp::sar::MergeGeom) == 4 * sizeof(float),
              "load_geom reads MergeGeom rows as packed float quadruples");

// The scalar kernels handle the non-multiple-of-width tails.
#include "sar/interp.hpp"

namespace esarp::sar::kernels::detail {

template <class V>
struct SimdKernels {
  using F = typename V::F;
  using I = typename V::I;
  static constexpr std::size_t kLanes = V::kLanes;

  /// -x as the sign-bit flip (exactly what scalar unary minus does).
  static F neg(F x) { return V::xor_(x, V::set1(-0.0f)); }

  /// fastmath::fast_rsqrt, lane-exact: y = y * (1.5f - ((xhalf*y)*y)).
  static F fast_rsqrt(F x) {
    const F xhalf = V::mul(V::set1(0.5f), x);
    I bits = V::to_i(x);
    bits = V::sub_i(V::set1_i(0x5f375a86), V::shr(bits, 1));
    F y = V::to_f(bits);
    y = V::mul(y, V::sub(V::set1(1.5f), V::mul(V::mul(xhalf, y), y)));
    y = V::mul(y, V::sub(V::set1(1.5f), V::mul(V::mul(xhalf, y), y)));
    return y;
  }

  /// fastmath::fast_sqrt: the x <= 0 early-out becomes a blend; the
  /// discarded arm's garbage lanes are masked away exactly like the
  /// scalar branch never computes them.
  static F fast_sqrt(F x) {
    const F le0 = V::cmp_le(x, V::zero());
    const F r = V::mul(x, fast_rsqrt(x));
    return V::blend(le0, V::zero(), r);
  }

  /// fastmath::fast_recip_pos.
  static F fast_recip_pos(F x) {
    const F r = fast_rsqrt(x);
    return V::mul(r, r);
  }

  /// fastmath::poly_cos with the two ternaries and the flip as blends.
  static F poly_cos(F x) {
    const F half_pi = V::set1(1.57079632679490f);
    const F pi = V::set1(3.14159265358979f);
    const F a0 = V::blend(V::cmp_lt(x, V::zero()), neg(x), x);
    const F flip = V::cmp_gt(a0, half_pi);
    const F a = V::blend(flip, V::sub(pi, a0), a0);
    const F u = V::mul(a, a);
    F c = V::set1(-1.0f / 3628800.0f);
    c = V::add(V::set1(1.0f / 40320.0f), V::mul(u, c));
    c = V::add(V::set1(-1.0f / 720.0f), V::mul(u, c));
    c = V::add(V::set1(1.0f / 24.0f), V::mul(u, c));
    c = V::add(V::set1(-1.0f / 2.0f), V::mul(u, c));
    c = V::add(V::set1(1.0f), V::mul(u, c));
    return V::blend(flip, neg(c), c);
  }

  /// fastmath::poly_acos (A&S 4.4.45 form, mirrored for x < 0).
  static F poly_acos(F x) {
    const F is_neg = V::cmp_lt(x, V::zero());
    const F ax = V::blend(is_neg, neg(x), x);
    F poly = V::set1(-0.0187293f);
    poly = V::add(V::set1(0.0742610f), V::mul(ax, poly));
    poly = V::add(V::set1(-0.2121144f), V::mul(ax, poly));
    poly = V::add(V::set1(1.5707288f), V::mul(ax, poly));
    const F r = V::mul(fast_sqrt(V::sub(V::set1(1.0f), ax)), poly);
    const F pi = V::set1(3.14159265358979f);
    return V::blend(is_neg, V::sub(pi, r), r);
  }

  /// sar::merge_geometry (paper eqs. 1-4) for a lane of ranges. The
  /// nested clamp ternary c = a > 1 ? 1 : (a < -1 ? -1 : a) becomes
  /// inner-then-outer blends with identical selection semantics.
  static void merge_geometry_lanes(F r, F cr, F d2, F inv_2d, F& r1, F& th1,
                                   F& r2, F& th2) {
    const F r2v = V::mul(r, r);
    const F base = V::add(r2v, d2);
    const F rcr = V::mul(r, cr);
    const F r1sq = V::add(base, rcr);
    const F r2sq = V::sub(base, rcr);
    r1 = fast_sqrt(r1sq);
    r2 = fast_sqrt(r2sq);
    const F n1 = V::sub(V::add(r1sq, d2), r2v);
    const F n2 = V::sub(V::add(r2sq, d2), r2v);
    const F one = V::set1(1.0f);
    const F i1 = fast_recip_pos(V::blend(V::cmp_gt(r1, V::zero()), r1, one));
    const F i2 = fast_recip_pos(V::blend(V::cmp_gt(r2, V::zero()), r2, one));
    const F a1 = V::mul(V::mul(n1, i1), inv_2d);
    const F a2 = V::mul(V::mul(n2, i2), inv_2d);
    const F neg_one = V::set1(-1.0f);
    const F c1 = V::blend(V::cmp_gt(a1, one), one,
                          V::blend(V::cmp_lt(a1, neg_one), neg_one, a1));
    const F c2 = V::blend(V::cmp_gt(a2, one), one,
                          V::blend(V::cmp_lt(a2, neg_one), neg_one, a2));
    const F pi = V::set1(3.14159265358979f);
    th1 = poly_acos(c1);
    th2 = V::sub(pi, poly_acos(c2));
  }

  static void merge_geometry_row(float r0, float dr, std::size_t j0,
                                 std::size_t n, float cr, float d2,
                                 float inv_2d, MergeGeom* out) {
    const F vr0 = V::set1(r0);
    const F vdr = V::set1(dr);
    const F vcr = V::set1(cr);
    const F vd2 = V::set1(d2);
    const F vinv = V::set1(inv_2d);
    std::size_t i = 0;
    float b_r1[kLanes], b_t1[kLanes], b_r2[kLanes], b_t2[kLanes];
    for (; i + kLanes <= n; i += kLanes) {
      const I j =
          V::add_i(V::set1_i(static_cast<std::int32_t>(j0 + i)), V::iota());
      const F r = V::add(vr0, V::mul(V::cvt_f(j), vdr));
      F r1, th1, r2, th2;
      merge_geometry_lanes(r, vcr, vd2, vinv, r1, th1, r2, th2);
      V::store(b_r1, r1);
      V::store(b_t1, th1);
      V::store(b_r2, r2);
      V::store(b_t2, th2);
      for (std::size_t l = 0; l < kLanes; ++l)
        out[i + l] = MergeGeom{b_r1[l], b_t1[l], b_r2[l], b_t2[l]};
    }
    for (; i < n; ++i) {
      const float r = r0 + static_cast<float>(j0 + i) * dr;
      out[i] = merge_geometry(r, cr, d2, inv_2d);
    }
  }

  /// kernels::nearest_index_row: nearest_child_index's float validity test
  /// as a lane mask, truncating conversions, and -1 (all bits set) OR-ed
  /// into every invalid lane, so a NaN, infinite or huge coordinate never
  /// leaves its conversion result in the output.
  static void nearest_index_row(const MergeGeom* geom, std::size_t n,
                                const ChildGrid& g, float shift1,
                                float shift2, std::int32_t* it1,
                                std::int32_t* ir1, std::int32_t* it2,
                                std::int32_t* ir2) {
    const F theta_start = V::set1(g.theta_start);
    const F inv_dtheta = V::set1(g.inv_dtheta);
    const F n_theta = V::set1(static_cast<float>(g.n_theta));
    const F r0 = V::set1(g.r0);
    const F inv_dr = V::set1(g.inv_dr);
    const F n_range = V::set1(static_cast<float>(g.n_range));
    const F half = V::set1(0.5f);
    const F minus_half = V::set1(-0.5f);
    const F all_ones = V::to_f(V::set1_i(-1));
    const auto child = [&](F rc, F thc, std::int32_t* it, std::int32_t* ir) {
      const F tf = V::mul(V::sub(thc, theta_start), inv_dtheta);
      const F rf = V::mul(V::sub(rc, r0), inv_dr);
      const F x = V::add(rf, half);
      const F valid =
          V::and_(V::and_(V::cmp_le(V::zero(), tf), V::cmp_lt(tf, n_theta)),
                  V::and_(V::cmp_le(minus_half, rf), V::cmp_lt(x, n_range)));
      const F invalid = V::xor_(valid, all_ones);
      V::store_i(it, V::to_i(V::or_(V::to_f(V::cvt_i(tf)), invalid)));
      V::store_i(ir, V::to_i(V::or_(V::to_f(V::cvt_i(x)), invalid)));
    };
    const F s1 = V::set1(shift1);
    const F s2 = V::set1(shift2);
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      F r1, th1, r2, th2;
      V::load_geom(geom + i, r1, th1, r2, th2);
      child(V::add(r1, s1), th1, it1 + i, ir1 + i);
      child(V::add(r2, s2), th2, it2 + i, ir2 + i);
    }
    for (; i < n; ++i) {
      nearest_child_index(g, geom[i].r1 + shift1, geom[i].theta1, it1[i],
                          ir1[i]);
      nearest_child_index(g, geom[i].r2 + shift2, geom[i].theta2, it2[i],
                          ir2[i]);
    }
  }

  /// One component pair of a Neville recurrence step:
  /// out = (a * tx - b * ty) * scale, matching the scalar complex
  /// arithmetic componentwise (complex * float scales both components).
  static void neville_step(F are, F aim, F bre, F bim, F tx, F ty, F scale,
                           F& ore, F& oim) {
    ore = V::mul(V::sub(V::mul(are, tx), V::mul(bre, ty)), scale);
    oim = V::mul(V::sub(V::mul(aim, tx), V::mul(bim, ty)), scale);
  }

  /// sar::neville4 on component lanes (nodes y0..y3, positions t).
  static void neville4_lanes(F y0re, F y0im, F y1re, F y1im, F y2re, F y2im,
                             F y3re, F y3im, F t, F& ore, F& oim) {
    const F t0 = t;
    const F t1 = V::sub(t, V::set1(1.0f));
    const F t2 = V::sub(t, V::set1(2.0f));
    const F t3 = V::sub(t, V::set1(3.0f));
    const F m1 = V::set1(-1.0f);
    const F mh = V::set1(-0.5f);
    const F mthird = V::set1(-1.0f / 3.0f);
    F p0re, p0im, p1re, p1im, p2re, p2im;
    neville_step(y0re, y0im, y1re, y1im, t1, t0, m1, p0re, p0im);
    neville_step(y1re, y1im, y2re, y2im, t2, t1, m1, p1re, p1im);
    neville_step(y2re, y2im, y3re, y3im, t3, t2, m1, p2re, p2im);
    neville_step(p0re, p0im, p1re, p1im, t2, t0, mh, p0re, p0im);
    neville_step(p1re, p1im, p2re, p2im, t3, t1, mh, p1re, p1im);
    neville_step(p0re, p0im, p1re, p1im, t3, t0, mthird, ore, oim);
  }

  static void neville4_many(const cf32* y, const float* t, cf32* out,
                            std::size_t n) {
    const F y0re = V::set1(y[0].real());
    const F y0im = V::set1(y[0].imag());
    const F y1re = V::set1(y[1].real());
    const F y1im = V::set1(y[1].imag());
    const F y2re = V::set1(y[2].real());
    const F y2im = V::set1(y[2].imag());
    const F y3re = V::set1(y[3].real());
    const F y3im = V::set1(y[3].imag());
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      F ore, oim;
      neville4_lanes(y0re, y0im, y1re, y1im, y2re, y2im, y3re, y3im,
                     V::load(t + i), ore, oim);
      V::store_cf(out + i, ore, oim);
    }
    for (; i < n; ++i) out[i] = neville4(y, t[i]);
  }

  static void neville4_rows(const cf32* row0, const cf32* row1,
                            const cf32* row2, const cf32* row3,
                            const float* t, cf32* out, std::size_t n) {
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      F y0re, y0im, y1re, y1im, y2re, y2im, y3re, y3im;
      V::load_cf(row0 + i, y0re, y0im);
      V::load_cf(row1 + i, y1re, y1im);
      V::load_cf(row2 + i, y2re, y2im);
      V::load_cf(row3 + i, y3re, y3im);
      F ore, oim;
      neville4_lanes(y0re, y0im, y1re, y1im, y2re, y2im, y3re, y3im,
                     V::load(t + i), ore, oim);
      V::store_cf(out + i, ore, oim);
    }
    for (; i < n; ++i) {
      const cf32 y[4] = {row0[i], row1[i], row2[i], row3[i]};
      out[i] = neville4(y, t[i]);
    }
  }

  static void criterion_terms(const cf32* minus, const cf32* plus,
                              float* out, std::size_t n) {
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      F mre, mim, pre, pim;
      V::load_cf(minus + i, mre, mim);
      V::load_cf(plus + i, pre, pim);
      const F mm = V::add(V::mul(mre, mre), V::mul(mim, mim));
      const F mp = V::add(V::mul(pre, pre), V::mul(pim, pim));
      V::store(out + i, V::mul(mm, mp));
    }
    for (; i < n; ++i) out[i] = criterion_term(minus[i], plus[i]);
  }

  // GBP carrier phase (see the header comment).

  using D = typename V::D;
  static constexpr std::size_t kDLanes = V::kDLanes;

  /// 2*pi as the scalar reference's fmod divides by it, split Cody-Waite
  /// style: kTwoPiHi keeps the top 27 significand bits, so n * kTwoPiHi
  /// and n * kTwoPiLo are exact for integer 0 <= n < 2^26.
  static constexpr double kTwoPi = 2.0 * kPi;
  static constexpr std::uint64_t kLow26 = (std::uint64_t{1} << 26) - 1;
  static constexpr double kTwoPiHi =
      std::bit_cast<double>(std::bit_cast<std::uint64_t>(kTwoPi) & ~kLow26);
  static constexpr double kTwoPiLo = kTwoPi - kTwoPiHi;
  /// fdlibm's two-part pi/2 (33 + 53 bits of the true pi/2).
  static constexpr double kPio2Hi = 1.57079632673412561417e+00;
  static constexpr double kPio2Lo = 6.07710050650619224932e-11;
  /// fdlibm k_sin.c / k_cos.c polynomial coefficients.
  static constexpr double kS1 = -1.66666666666666324348e-01;
  static constexpr double kS2 = 8.33333333332248946124e-03;
  static constexpr double kS3 = -1.98412698298579493134e-04;
  static constexpr double kS4 = 2.75573137070700676789e-06;
  static constexpr double kS5 = -2.50507602534068634195e-08;
  static constexpr double kS6 = 1.58969099521155010221e-10;
  static constexpr double kC1 = 4.16666666666666019037e-02;
  static constexpr double kC2 = -1.38888888888741095749e-03;
  static constexpr double kC3 = 2.48015872894767294178e-05;
  static constexpr double kC4 = -2.75573143513906633035e-07;
  static constexpr double kC5 = 2.08757232129817482790e-09;
  static constexpr double kC6 = -1.13596475577881948265e-11;

  static D dc(double x) { return V::set1_d(x); }

  /// a + b * c, two roundings (no FMA).
  static D madd(D a, D b, D c) { return V::add_d(a, V::mul_d(b, c)); }

  /// fdlibm __kernel_sin(x, y, 1) on |x| <= pi/4 with tail y:
  /// x - ((z * (y / 2 - v * r) - y) - v * S1).
  static D kernel_sin(D x, D y) {
    const D z = V::mul_d(x, x);
    const D w = V::mul_d(z, z);
    const D s34 = madd(dc(kS3), z, dc(kS4));
    const D s56 = madd(dc(kS5), z, dc(kS6));
    const D r = V::add_d(madd(dc(kS2), z, s34), V::mul_d(V::mul_d(z, w), s56));
    const D v = V::mul_d(z, x);
    const D h = V::sub_d(V::mul_d(dc(0.5), y), V::mul_d(v, r));
    const D inner = V::sub_d(V::mul_d(z, h), y);
    return V::sub_d(x, V::sub_d(inner, V::mul_d(v, dc(kS1))));
  }

  /// fdlibm __kernel_cos(x, y) on |x| <= pi/4 with tail y:
  /// w + (((1 - w) - z / 2) + (z * r - x * y)) with w = 1 - z / 2.
  static D kernel_cos(D x, D y) {
    const D z = V::mul_d(x, x);
    const D w = V::mul_d(z, z);
    const D c23 = madd(dc(kC2), z, dc(kC3));
    const D c56 = madd(dc(kC5), z, dc(kC6));
    const D c456 = madd(dc(kC4), z, c56);
    const D r = madd(V::mul_d(z, madd(dc(kC1), z, c23)), V::mul_d(w, w), c456);
    const D hz = V::mul_d(dc(0.5), z);
    const D w1 = V::sub_d(dc(1.0), hz);
    const D tail = V::sub_d(V::mul_d(z, r), V::mul_d(x, y));
    return V::add_d(w1, V::add_d(V::sub_d(V::sub_d(dc(1.0), w1), hz), tail));
  }

  /// gbp_rotation for kDLanes ranges: writes c[l], s[l] and returns the
  /// bit mask of lanes proven equal to libm. Lanes outside the mask hold
  /// garbage and must be recomputed with gbp_rotation.
  static unsigned gbp_phase_lanes(const float* range, double k_phase,
                                  float* c, float* s) {
    const D t = V::mul_d(dc(k_phase), V::load_d(range));
    const D quot = V::mul_d(t, dc(1.0 / kTwoPi));
    // The reduction below is exact for 0 <= n < 2^26; NaN fails both.
    const D in_range = V::and_d(V::cmp_ge_d(t, dc(0.0)),
                                V::cmp_lt_d(quot, dc(0x1p26)));

    // fmod(t, 2*pi), exactly. n may be one off the true quotient, but only
    // when the remainder is within 2^-26 * 2*pi of 0 or of 2*pi, and then
    // one exact +-2*pi step fixes it.
    const D hi = dc(kTwoPiHi);
    const D lo = dc(kTwoPiLo);
    const D n = V::trunc_d(quot);
    D f = V::sub_d(V::sub_d(t, V::mul_d(n, hi)), V::mul_d(n, lo));
    const D f_up = V::add_d(V::add_d(f, hi), lo);
    f = V::blend_d(V::cmp_lt_d(f, dc(0.0)), f_up, f);
    const D f_down = V::sub_d(V::sub_d(f, hi), lo);
    f = V::blend_d(V::cmp_ge_d(f, dc(kTwoPi)), f_down, f);

    // Quadrant q in 0..4 and the reduced argument x + xt in
    // [-pi/4, pi/4], as in fdlibm's __ieee754_rem_pio2.
    const D q = V::nearest_d(V::mul_d(f, dc(2.0 / kPi)));
    const D a = V::sub_d(f, V::mul_d(q, dc(kPio2Hi)));
    const D qlo = V::mul_d(q, dc(kPio2Lo));
    const D x = V::sub_d(a, qlo);
    const D xt = V::sub_d(V::sub_d(a, x), qlo);
    const D ks = kernel_sin(x, xt);
    const D kc = kernel_cos(x, xt);
    const D q1 = V::cmp_eq_d(q, dc(1.0));
    const D q2 = V::cmp_eq_d(q, dc(2.0));
    const D q3 = V::cmp_eq_d(q, dc(3.0));
    const D swap = V::or_d(q1, q3);
    const D sin_sign = V::and_d(V::or_d(q2, q3), dc(-0.0));
    const D cos_sign = V::and_d(V::or_d(q1, q2), dc(-0.0));
    const D sv = V::xor_d(V::blend_d(swap, kc, ks), sin_sign);
    const D cv = V::xor_d(V::blend_d(swap, ks, kc), cos_sign);

    // The rounding bracket.
    const D eps = dc(0x1p-50);
    const unsigned c_ok =
        V::narrow_same(c, V::sub_d(cv, eps), V::add_d(cv, eps));
    const unsigned s_ok =
        V::narrow_same(s, V::sub_d(sv, eps), V::add_d(sv, eps));
    return V::mask_d(in_range) & c_ok & s_ok;
  }

  /// gbp_phase_lanes over kLanes ranges; bit l of the result is lane l.
  static unsigned gbp_phase_quantum(const float* range, double k_phase,
                                    float* c, float* s) {
    unsigned fast = 0;
    for (std::size_t j = 0; j < kLanes; j += kDLanes)
      fast |= gbp_phase_lanes(range + j, k_phase, c + j, s + j) << j;
    return fast;
  }

  static void gbp_phase_row(const float* range, double k_phase, cf32* rot,
                            std::uint8_t* fast, std::size_t n) {
    std::size_t i = 0;
    float c[kLanes], s[kLanes];
    for (; i + kLanes <= n; i += kLanes) {
      const unsigned ok = gbp_phase_quantum(range + i, k_phase, c, s);
      for (std::size_t l = 0; l < kLanes; ++l) {
        fast[i + l] = (ok >> l) & 1u;
        if (fast[i + l] != 0)
          rot[i + l] = cf32{c[l], s[l]};
        else
          rot[i + l] = gbp_rotation(range[i + l], k_phase);
      }
    }
    for (; i < n; ++i) {
      rot[i] = gbp_rotation(range[i], k_phase);
      fast[i] = 0;
    }
  }

  static void gbp_contrib_row(const float* px, const float* py,
                              float pulse_x, const cf32* pulse_row,
                              const GbpGrid& g, cf32* acc, std::size_t n) {
    const F vpx = V::set1(pulse_x);
    const F vr0 = V::set1(g.r0);
    const F vinv = V::set1(g.inv_dr);
    const F vhalf = V::set1(0.5f);
    const F vminus_half = V::set1(-0.5f);
    const F vnr = V::set1(static_cast<float>(g.n_range));
    std::size_t i = 0;
    float rng[kLanes], c[kLanes], s[kLanes];
    std::int32_t bin[kLanes];
    std::int32_t ok[kLanes];
    for (; i + kLanes <= n; i += kLanes) {
      const F dx = V::sub(V::load(px + i), vpx);
      const F pyv = V::load(py + i);
      const F range = V::sqrt(V::add(V::mul(dx, dx), V::mul(pyv, pyv)));
      const F bf = V::mul(V::sub(range, vr0), vinv);
      const F x = V::add(bf, vhalf);
      // valid = (bf >= -0.5f) && (bf + 0.5f < n_range) in float, exactly
      // the scalar gbp_contribution test; a NaN lane fails both compares.
      const F valid = V::and_(V::cmp_le(vminus_half, bf), V::cmp_lt(x, vnr));
      V::store(rng, range);
      V::store_i(bin, V::cvt_i(x));
      V::store_i(ok, V::to_i(valid));
      const unsigned fast = gbp_phase_quantum(rng, g.k_phase, c, s);
      for (std::size_t l = 0; l < kLanes; ++l) {
        if (ok[l] == 0) continue;
        cf32 rot{c[l], s[l]};
        if (((fast >> l) & 1u) == 0) rot = gbp_rotation(rng[l], g.k_phase);
        acc[i + l] += pulse_row[bin[l]] * rot;
      }
    }
    for (; i < n; ++i)
      acc[i] += gbp_contribution(px[i], py[i], pulse_x, pulse_row, g);
  }

  static const KernelTable* table() {
    static const KernelTable t{merge_geometry_row, nearest_index_row,
                               neville4_many, neville4_rows,
                               criterion_terms, gbp_contrib_row,
                               gbp_phase_row};
    return &t;
  }
};

} // namespace esarp::sar::kernels::detail
