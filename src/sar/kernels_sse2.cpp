// SSE2 backend of the unified kernel API (4 float lanes). SSE2 is the
// x86-64 baseline, so this TU needs no extra arch flags; on non-x86
// targets the trait is absent and the table is null (scalar fallback).
// Built with -ffp-contract=off — see kernels_simd_body.hpp for the
// bit-exactness contract.
#include "sar/kernels_impl.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>

#include "sar/kernels_simd_body.hpp"

namespace esarp::sar::kernels::detail {

namespace {

struct VSse2 {
  static constexpr std::size_t kLanes = 4;
  using F = __m128;
  using I = __m128i;

  static F load(const float* p) { return _mm_loadu_ps(p); }
  static void store(float* p, F v) { _mm_storeu_ps(p, v); }
  static F set1(float x) { return _mm_set1_ps(x); }
  static F zero() { return _mm_setzero_ps(); }
  static F add(F a, F b) { return _mm_add_ps(a, b); }
  static F sub(F a, F b) { return _mm_sub_ps(a, b); }
  static F mul(F a, F b) { return _mm_mul_ps(a, b); }
  static F sqrt(F a) { return _mm_sqrt_ps(a); }
  static F cmp_lt(F a, F b) { return _mm_cmplt_ps(a, b); }
  static F cmp_le(F a, F b) { return _mm_cmple_ps(a, b); }
  static F cmp_gt(F a, F b) { return _mm_cmpgt_ps(a, b); }
  static F blend(F m, F a, F b) {
    return _mm_or_ps(_mm_and_ps(m, a), _mm_andnot_ps(m, b));
  }
  static F and_(F a, F b) { return _mm_and_ps(a, b); }
  static F or_(F a, F b) { return _mm_or_ps(a, b); }
  static F xor_(F a, F b) { return _mm_xor_ps(a, b); }
  static I to_i(F a) { return _mm_castps_si128(a); }
  static F to_f(I a) { return _mm_castsi128_ps(a); }
  static I shr(I a, int count) { return _mm_srli_epi32(a, count); }
  static I add_i(I a, I b) { return _mm_add_epi32(a, b); }
  static I sub_i(I a, I b) { return _mm_sub_epi32(a, b); }
  static I set1_i(std::int32_t x) { return _mm_set1_epi32(x); }
  static F cvt_f(I a) { return _mm_cvtepi32_ps(a); }
  static I cvt_i(F a) { return _mm_cvttps_epi32(a); }
  static void store_i(std::int32_t* p, I v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static I iota() { return _mm_set_epi32(3, 2, 1, 0); }

  // Double lanes (the GBP carrier phase).
  static constexpr std::size_t kDLanes = 2;
  using D = __m128d;

  static D load_d(const float* p) { return _mm_set_pd(p[1], p[0]); }
  static D set1_d(double x) { return _mm_set1_pd(x); }
  static D add_d(D a, D b) { return _mm_add_pd(a, b); }
  static D sub_d(D a, D b) { return _mm_sub_pd(a, b); }
  static D mul_d(D a, D b) { return _mm_mul_pd(a, b); }
  static D cmp_lt_d(D a, D b) { return _mm_cmplt_pd(a, b); }
  static D cmp_ge_d(D a, D b) { return _mm_cmpge_pd(a, b); }
  static D cmp_eq_d(D a, D b) { return _mm_cmpeq_pd(a, b); }
  static D and_d(D a, D b) { return _mm_and_pd(a, b); }
  static D or_d(D a, D b) { return _mm_or_pd(a, b); }
  static D xor_d(D a, D b) { return _mm_xor_pd(a, b); }
  static D blend_d(D m, D a, D b) {
    return _mm_or_pd(_mm_and_pd(m, a), _mm_andnot_pd(m, b));
  }
  static unsigned mask_d(D m) {
    return static_cast<unsigned>(_mm_movemask_pd(m));
  }
  /// Truncated / nearest-even integer value; exact for |x| < 2^31 (SSE2
  /// has no round_pd).
  static D trunc_d(D x) { return _mm_cvtepi32_pd(_mm_cvttpd_epi32(x)); }
  static D nearest_d(D x) { return _mm_cvtepi32_pd(_mm_cvtpd_epi32(x)); }
  /// Stores float(lo) to p; returns the lanes where float(lo) and
  /// float(hi) have the same bits.
  static unsigned narrow_same(float* p, D lo, D hi) {
    const __m128 a = _mm_cvtpd_ps(lo); // two floats in the low half
    const __m128 b = _mm_cvtpd_ps(hi);
    _mm_storel_pi(reinterpret_cast<__m64*>(p), a);
    const __m128i same =
        _mm_cmpeq_epi32(_mm_castps_si128(a), _mm_castps_si128(b));
    return static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(same))) & 3u;
  }

  static void load_cf(const cf32* p, F& re, F& im) {
    const float* f = reinterpret_cast<const float*>(p);
    const F a = _mm_loadu_ps(f);     // r0 i0 r1 i1
    const F b = _mm_loadu_ps(f + 4); // r2 i2 r3 i3
    re = _mm_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
    im = _mm_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1));
  }
  static void store_cf(cf32* p, F re, F im) {
    float* f = reinterpret_cast<float*>(p);
    _mm_storeu_ps(f, _mm_unpacklo_ps(re, im));
    _mm_storeu_ps(f + 4, _mm_unpackhi_ps(re, im));
  }
  /// Four MergeGeom records as component vectors (a 4x4 transpose).
  static void load_geom(const MergeGeom* p, F& r1, F& t1, F& r2, F& t2) {
    const float* f = reinterpret_cast<const float*>(p);
    r1 = _mm_loadu_ps(f);
    t1 = _mm_loadu_ps(f + 4);
    r2 = _mm_loadu_ps(f + 8);
    t2 = _mm_loadu_ps(f + 12);
    _MM_TRANSPOSE4_PS(r1, t1, r2, t2);
  }
};

} // namespace

const KernelTable* sse2_table() { return SimdKernels<VSse2>::table(); }

} // namespace esarp::sar::kernels::detail

#else // !__SSE2__

namespace esarp::sar::kernels::detail {

const KernelTable* sse2_table() { return nullptr; }

} // namespace esarp::sar::kernels::detail

#endif
