// Fault-tolerant transfer wrappers (docs/fault-injection.md).
//
// Each reliable_* wrapper performs one logical SDRAM transfer the way a
// hardened Epiphany runtime would: issue, verify the delivered payload by
// comparing it byte for byte with its source, and on a mismatch
// (corruption / bit flip) or a modeled DMA watchdog expiry (drop) retry
// with exponential backoff. Every retry attempt — backoff, re-issue,
// re-verify — runs inside a "fault/dma-retry" span: the span prefix is
// what tells the hazard sanitizer that shadow-state oddities underneath
// are injected faults being recovered, not kernel bugs. Retries exhausting
// RetryPolicy::max_attempts throw fault::FaultUnrecovered.
//
// Accounting: every failed attempt counts one fault.detected at its site,
// and when a later attempt verifies, each of those faults counts one
// fault.recovered at the same site. detected - recovered is therefore the
// faults whose transfer exhausted its attempts.
//
// Outside a fault campaign (no injector, or plan.resilient == false) every
// wrapper degenerates to the plain single-attempt operation, so kernels
// can call these unconditionally without changing fault-free behaviour...
// though the shipped kernels keep their plain paths for bit-identical
// baseline manifests and only route through here when an injector is
// attached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "epiphany/core_ctx.hpp"
#include "epiphany/task.hpp"
#include "fault/injector.hpp"

namespace esarp::ep {

namespace detail {

/// Modeled verification cost: the core compares the delivered payload at
/// 8 bytes/cycle (a word-wide load/compare loop on the dual-issue core).
[[nodiscard]] inline Cycles verify_cycles(std::size_t bytes) {
  return static_cast<Cycles>(bytes / 8 + 1);
}

/// Host-side verification of one delivered segment. The simulated cost is
/// charged separately by verify_cycles; a byte compare catches every
/// change a checksum would, and more.
[[nodiscard]] inline bool payload_ok(const void* dst, const void* src,
                                     std::size_t bytes) {
  return std::memcmp(dst, src, bytes) == 0;
}

/// Backoff before retry attempt `retry` (0-based).
[[nodiscard]] inline Cycles backoff_for(const fault::RetryPolicy& pol,
                                        int retry) {
  return pol.backoff_base << retry;
}

/// The engine primitive one verified transfer issues per attempt.
enum class Xfer : std::uint8_t { kReadExt, kWriteExt, kDmaRead, kDmaWrite };

/// The verify-and-retry loop behind every reliable_* wrapper
/// (resilient.cpp). kDmaRead moves `burst` (or `one` when `burst` is
/// empty) as one burst job; the other kinds move `one`.
TaskT<void> verified_transfer(CoreCtx& ctx, Xfer kind, DmaSeg one,
                              std::span<const DmaSeg> burst);

} // namespace detail

/// Blocking bulk SDRAM read with verification + retry.
inline TaskT<void> reliable_read_ext(CoreCtx& ctx, void* dst, const void* src,
                                     std::size_t bytes) {
  return detail::verified_transfer(ctx, detail::Xfer::kReadExt,
                                   {dst, src, bytes}, {});
}

/// Posted SDRAM write with read-back verification + retry.
inline TaskT<void> reliable_write_ext(CoreCtx& ctx, void* dst, const void* src,
                                      std::size_t bytes) {
  return detail::verified_transfer(ctx, detail::Xfer::kWriteExt,
                                   {dst, src, bytes}, {});
}

/// Burst DMA read with per-segment verification + whole-burst retry. The
/// re-issue recopies every segment, which also repairs destinations a
/// mem-bits flip corrupted after delivery. `segs` must outlive the await.
inline TaskT<void> reliable_dma_read_burst(CoreCtx& ctx,
                                           std::span<const DmaSeg> segs) {
  return detail::verified_transfer(ctx, detail::Xfer::kDmaRead, {}, segs);
}

/// Single-segment DMA read with verification + retry.
inline TaskT<void> reliable_dma_read(CoreCtx& ctx, void* dst, const void* src,
                                     std::size_t bytes) {
  return detail::verified_transfer(ctx, detail::Xfer::kDmaRead,
                                   {dst, src, bytes}, {});
}

/// DMA write local -> SDRAM with verification + retry.
inline TaskT<void> reliable_dma_write(CoreCtx& ctx, void* dst, const void* src,
                                      std::size_t bytes) {
  return detail::verified_transfer(ctx, detail::Xfer::kDmaWrite,
                                   {dst, src, bytes}, {});
}

} // namespace esarp::ep
