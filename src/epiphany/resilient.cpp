#include "epiphany/resilient.hpp"

#include <string>

namespace esarp::ep::detail {

TaskT<void> verified_transfer(CoreCtx& ctx, Xfer kind, DmaSeg one,
                              std::span<const DmaSeg> burst) {
  const std::span<const DmaSeg> segs =
      burst.empty() ? std::span<const DmaSeg>{&one, 1} : burst;
  fault::FaultInjector* inj = ctx.fault_injector();
  const bool verify = inj != nullptr && inj->plan().resilient;
  Cycles first_attempt_done = 0;
  // Faults detected so far on this transfer, per site.
  std::uint64_t corruptions = 0;
  std::uint64_t drops = 0;
  for (int attempt = 0;; ++attempt) {
    const bool retrying = attempt > 0;
    if (retrying) {
      ctx.begin_span("fault/dma-retry");
      co_await ctx.idle(backoff_for(inj->plan().retry, attempt - 1));
    }
    fault::TransferFault tf = fault::TransferFault::kNone;
    switch (kind) {
    case Xfer::kReadExt:
      co_await ctx.read_ext(one.dst, one.src, one.bytes);
      tf = ctx.last_transfer_fault();
      break;
    case Xfer::kWriteExt:
      co_await ctx.write_ext(one.dst, one.src, one.bytes);
      tf = ctx.last_transfer_fault();
      break;
    case Xfer::kDmaRead: {
      const DmaJob job = ctx.dma_read_ext_burst(segs);
      co_await ctx.wait(job);
      tf = job.fault;
      break;
    }
    case Xfer::kDmaWrite: {
      const DmaJob job = ctx.dma_write_ext(one.dst, one.src, one.bytes);
      co_await ctx.wait(job);
      tf = job.fault;
      break;
    }
    }
    if (!verify) co_return;

    const fault::RetryPolicy& pol = inj->plan().retry;
    // A lost transfer is detected by the modeled DMA watchdog, not the
    // compare: charge the full timeout margin before giving up on it.
    if (tf == fault::TransferFault::kDropped)
      co_await ctx.idle(pol.drop_timeout);
    std::size_t total = 0;
    bool ok = true;
    for (const DmaSeg& s : segs) {
      total += s.bytes;
      ok = ok && payload_ok(s.dst, s.src, s.bytes);
    }
    co_await ctx.idle(verify_cycles(total));
    if (retrying) ctx.end_span();
    if (attempt == 0) first_attempt_done = ctx.now();
    if (ok) {
      if (retrying)
        inj->count_recovered(corruptions, drops,
                             ctx.now() - first_attempt_done);
      co_return;
    }
    const bool dropped = tf == fault::TransferFault::kDropped;
    inj->count_detected(dropped ? fault::Site::kDmaDrop
                                : fault::Site::kDmaCorrupt);
    ++(dropped ? drops : corruptions);
    if (attempt + 1 >= pol.max_attempts) {
      static constexpr const char* kNames[] = {"read_ext", "write_ext",
                                               "dma burst", "dma write"};
      throw fault::FaultUnrecovered(
          std::string(kNames[static_cast<int>(kind)]) +
          " still failing after " + std::to_string(attempt + 1) +
          " attempts on core " + std::to_string(ctx.id()));
    }
    inj->count_retry();
  }
}

} // namespace esarp::ep::detail
