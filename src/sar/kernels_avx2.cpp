// AVX2 backend of the unified kernel API (8 float lanes). This TU is the
// only one compiled with -mavx2, and deliberately WITHOUT -mfma and with
// -ffp-contract=off: fused multiply-adds would change rounding versus the
// scalar reference, breaking the bit-exactness contract
// (kernels_simd_body.hpp). When the build does not enable AVX2
// (ESARP_ENABLE_SIMD=OFF or a non-x86 target) the table is null and the
// dispatcher falls back to SSE2 or scalar; runtime cpu support is checked
// separately in kernels.cpp.
#include "sar/kernels_impl.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "sar/kernels_simd_body.hpp"

namespace esarp::sar::kernels::detail {

namespace {

struct VAvx2 {
  static constexpr std::size_t kLanes = 8;
  using F = __m256;
  using I = __m256i;

  static F load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, F v) { _mm256_storeu_ps(p, v); }
  static F set1(float x) { return _mm256_set1_ps(x); }
  static F zero() { return _mm256_setzero_ps(); }
  static F add(F a, F b) { return _mm256_add_ps(a, b); }
  static F sub(F a, F b) { return _mm256_sub_ps(a, b); }
  static F mul(F a, F b) { return _mm256_mul_ps(a, b); }
  static F sqrt(F a) { return _mm256_sqrt_ps(a); }
  static F cmp_lt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  static F cmp_le(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_LE_OQ); }
  static F cmp_gt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  static F blend(F m, F a, F b) { return _mm256_blendv_ps(b, a, m); }
  static F and_(F a, F b) { return _mm256_and_ps(a, b); }
  static F or_(F a, F b) { return _mm256_or_ps(a, b); }
  static F xor_(F a, F b) { return _mm256_xor_ps(a, b); }
  static I to_i(F a) { return _mm256_castps_si256(a); }
  static F to_f(I a) { return _mm256_castsi256_ps(a); }
  static I shr(I a, int count) { return _mm256_srli_epi32(a, count); }
  static I add_i(I a, I b) { return _mm256_add_epi32(a, b); }
  static I sub_i(I a, I b) { return _mm256_sub_epi32(a, b); }
  static I set1_i(std::int32_t x) { return _mm256_set1_epi32(x); }
  static F cvt_f(I a) { return _mm256_cvtepi32_ps(a); }
  static I cvt_i(F a) { return _mm256_cvttps_epi32(a); }
  static void store_i(std::int32_t* p, I v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static I iota() { return _mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0); }

  // Double lanes (the GBP carrier phase).
  static constexpr std::size_t kDLanes = 4;
  using D = __m256d;

  static D load_d(const float* p) { return _mm256_cvtps_pd(_mm_loadu_ps(p)); }
  static D set1_d(double x) { return _mm256_set1_pd(x); }
  static D add_d(D a, D b) { return _mm256_add_pd(a, b); }
  static D sub_d(D a, D b) { return _mm256_sub_pd(a, b); }
  static D mul_d(D a, D b) { return _mm256_mul_pd(a, b); }
  static D cmp_lt_d(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static D cmp_ge_d(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
  static D cmp_eq_d(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  static D and_d(D a, D b) { return _mm256_and_pd(a, b); }
  static D or_d(D a, D b) { return _mm256_or_pd(a, b); }
  static D xor_d(D a, D b) { return _mm256_xor_pd(a, b); }
  static D blend_d(D m, D a, D b) { return _mm256_blendv_pd(b, a, m); }
  static unsigned mask_d(D m) {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }
  /// Truncated / nearest-even integer value.
  static D trunc_d(D x) {
    return _mm256_round_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  static D nearest_d(D x) {
    return _mm256_round_pd(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  /// Stores float(lo) to p; returns the lanes where float(lo) and
  /// float(hi) have the same bits.
  static unsigned narrow_same(float* p, D lo, D hi) {
    const __m128 a = _mm256_cvtpd_ps(lo);
    const __m128 b = _mm256_cvtpd_ps(hi);
    _mm_storeu_ps(p, a);
    const __m128i same =
        _mm_cmpeq_epi32(_mm_castps_si128(a), _mm_castps_si128(b));
    return static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(same)));
  }

  static void load_cf(const cf32* p, F& re, F& im) {
    const float* f = reinterpret_cast<const float*>(p);
    const F a = _mm256_loadu_ps(f);     // r0 i0 r1 i1 | r2 i2 r3 i3
    const F b = _mm256_loadu_ps(f + 8); // r4 i4 r5 i5 | r6 i6 r7 i7
    // shuffle gathers within 128-bit halves; the cross-lane permute puts
    // the lanes back in element order.
    const I fix = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
    re = _mm256_permutevar8x32_ps(
        _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)), fix);
    im = _mm256_permutevar8x32_ps(
        _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)), fix);
  }
  static void store_cf(cf32* p, F re, F im) {
    float* f = reinterpret_cast<float*>(p);
    const F lo = _mm256_unpacklo_ps(re, im); // c0 c1 | c4 c5
    const F hi = _mm256_unpackhi_ps(re, im); // c2 c3 | c6 c7
    _mm256_storeu_ps(f, _mm256_permute2f128_ps(lo, hi, 0x20));
    _mm256_storeu_ps(f + 8, _mm256_permute2f128_ps(lo, hi, 0x31));
  }
  /// Eight MergeGeom records as component vectors: records k and k + 4
  /// share a register, so the in-half 4x4 transposes leave every
  /// component in element order.
  static void load_geom(const MergeGeom* p, F& r1, F& t1, F& r2, F& t2) {
    const float* f = reinterpret_cast<const float*>(p);
    const auto pair = [f](int k) {
      const __m128 lo = _mm_loadu_ps(f + 4 * k);
      const __m128 hi = _mm_loadu_ps(f + 4 * (k + 4));
      return _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1);
    };
    const F a = pair(0);
    const F b = pair(1);
    const F c = pair(2);
    const F d = pair(3);
    const F ab_lo = _mm256_unpacklo_ps(a, b); // a.r1 b.r1 a.t1 b.t1 | ...
    const F cd_lo = _mm256_unpacklo_ps(c, d);
    const F ab_hi = _mm256_unpackhi_ps(a, b); // a.r2 b.r2 a.t2 b.t2 | ...
    const F cd_hi = _mm256_unpackhi_ps(c, d);
    r1 = _mm256_shuffle_ps(ab_lo, cd_lo, _MM_SHUFFLE(1, 0, 1, 0));
    t1 = _mm256_shuffle_ps(ab_lo, cd_lo, _MM_SHUFFLE(3, 2, 3, 2));
    r2 = _mm256_shuffle_ps(ab_hi, cd_hi, _MM_SHUFFLE(1, 0, 1, 0));
    t2 = _mm256_shuffle_ps(ab_hi, cd_hi, _MM_SHUFFLE(3, 2, 3, 2));
  }
};

} // namespace

const KernelTable* avx2_table() { return SimdKernels<VAvx2>::table(); }

} // namespace esarp::sar::kernels::detail

#else // !__AVX2__

namespace esarp::sar::kernels::detail {

const KernelTable* avx2_table() { return nullptr; }

} // namespace esarp::sar::kernels::detail

#endif
