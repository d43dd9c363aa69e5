// Unified kernel API: the interpolation / merge / criterion /
// back-projection inner loops behind one runtime-dispatched interface with
// scalar and SIMD (SSE2 / AVX2) backends.
//
// The scalar backend is the reference: it calls the exact inline kernels
// (sar/interp.hpp, sar/merge_kernel.hpp, sar/gbp.hpp) the adoption sites
// used to inline directly. The SIMD backends replicate every operation
// lane-by-lane — same operation order and association, ternaries as
// blends, the fastmath bit tricks on integer lanes, `sqrtps` for the
// IEEE-exact std::sqrt — and all kernel translation units are compiled
// with -ffp-contract=off, so every backend produces bit-identical results
// (enforced by tests/test_kernels.cpp and the micro_kernels bench rows).
// The GBP carrier phase is the one part computed another way and proven
// equal to libm per lane (gbp_contrib_row below).
// Simulated-cycle costs are analytic (OpCounts), so backend choice affects
// host wall-clock only: images, cycles, energy and manifests are unchanged.
//
// Backend selection: the best available backend is picked once at first
// use (compile-time availability + runtime cpu detection); the
// ESARP_KERNELS environment variable (scalar | sse2 | avx2 | auto)
// overrides it, e.g. ESARP_KERNELS=scalar to rule the vector backends out
// while debugging (docs/performance.md).
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "sar/gbp.hpp"
#include "sar/merge_kernel.hpp"

namespace esarp::sar::kernels {

enum class Backend { kScalar, kSse2, kAvx2 };

/// Static name of a backend ("scalar", "sse2", "avx2").
[[nodiscard]] const char* backend_name(Backend b);

/// True when `b` is both compiled in and supported by this CPU.
[[nodiscard]] bool backend_available(Backend b);

/// The backend the dispatch table currently points at (resolved on first
/// use from availability and ESARP_KERNELS).
[[nodiscard]] Backend active();
[[nodiscard]] const char* active_name();

/// Repoint the dispatch table (tests and benches only). Not thread-safe:
/// call before any worker threads touch the kernels. Requires
/// backend_available(b).
void force_backend(Backend b);

/// merge_geometry (paper eqs. 1-4) for a contiguous run of range bins:
/// out[i] = merge_geometry(r0 + float(j0 + i) * dr, cr, d2, inv_2d).
void merge_geometry_row(float r0, float dr, std::size_t j0, std::size_t n,
                        float cr, float d2, float inv_2d, MergeGeom* out);

/// Nearest-neighbour child indices of one parent row, the index half of
/// the plain (no phase compensation) kNearest merge: for i < n,
///   nearest_child_index(g, geom[i].r1 + shift1, geom[i].theta1,
///                       out.it1()[i], out.ir1()[i])
/// and the same for child 2 with r2, shift2, theta2. Entries are -1 where
/// the contribution is zero; validity is decided in float before any int
/// conversion, so NaN, infinite and huge coordinates give -1 in every
/// backend. Callers then only gather and add (sar::merge_parent_row).
/// `geom` is a row shared across subaperture pairs (see the sharing
/// contract in sar/merge_kernel.hpp); the shifts are the only per-pair
/// inputs. Requires n <= out.n.
void nearest_index_row(const MergeGeom* geom, std::size_t n,
                       const ChildGrid& g, float shift1, float shift2,
                       NearestIndexRow& out);

/// Neville cubic at many positions over one fixed 4-node window:
/// out[i] = neville4(y, t[i]).
void neville4_many(const cf32 y[4], const float* t, cf32* out,
                   std::size_t n);

/// Neville cubic with per-position nodes gathered from four parallel
/// arrays: out[i] = neville4({row0[i], row1[i], row2[i], row3[i]}, t[i]).
void neville4_rows(const cf32* row0, const cf32* row1, const cf32* row2,
                   const cf32* row3, const float* t, cf32* out,
                   std::size_t n);

/// Criterion correlation terms (paper eq. 6, before accumulation):
/// out[i] = |minus[i]|^2 * |plus[i]|^2.
void criterion_terms(const cf32* minus, const cf32* plus, float* out,
                     std::size_t n);

/// One pulse's GBP contributions to a row of pixels:
/// acc[i] += gbp_contribution(px[i], py[i], pulse_x, pulse_row, g).
/// The range/bin geometry is vectorized, and so is the double-precision
/// carrier phase: an exact fmod, the fdlibm sin/cos polynomials, and a
/// rounding bracket of +-2^-50 around each result that keeps a lane only
/// when both ends round to the same float — which, with libm within 1 ulp,
/// is libm's float. Lanes whose bracket fails (or whose phase is beyond
/// the exact reduction) recompute the scalar libm expression, so the
/// result stays bit-identical to the scalar reference.
void gbp_contrib_row(const float* px, const float* py, float pulse_x,
                     const cf32* pulse_row, const GbpGrid& g, cf32* acc,
                     std::size_t n);

} // namespace esarp::sar::kernels
