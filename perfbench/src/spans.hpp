// Benchmark-side span recorder.
//
// Spans are recorded around the benchmark's calls into the esarp layers,
// kept in memory, and written out once the run ends: a Chrome-trace JSON
// (chrome://tracing or Perfetto) and a per-span-name self-time table. A
// span's self time is its duration minus the part covered by its direct
// children; the root spans of a run never overlap, so the self times of
// all spans sum to at most the traced wall time.
//
// A disabled recorder records nothing: Scope then costs one branch, which
// is what keeps untraced runs untraced.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  ///< layer call, e.g. "sar.ffbp" (static string)
  std::int64_t start_ns = 0; ///< since the recorder's epoch
  std::int64_t end_ns = 0;
  int parent = -1;        ///< index of the enclosing span, -1 for a root
  int item = -1;          ///< round the span belongs to, -1 for set-up
};

struct SelfTime {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class SpanRecorder {
public:
  SpanRecorder() : epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Round id stamped on every span opened from now on.
  void set_item(int item) { item_ = item; }

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
  public:
    Scope(SpanRecorder& rec, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    SpanRecorder* rec_ = nullptr; ///< null when the recorder is disabled
    int index_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name, over every recorded span.
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;
  /// Duration of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_s(const std::string& name) const;

  void write_chrome_trace(const std::filesystem::path& path) const;
  /// Self time per span name, with the traced wall time the spans lie in
  /// and the measured tracing overhead per round.
  void write_self_time_table(const std::filesystem::path& path,
                             double traced_wall_s, double overhead_s) const;

private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  bool enabled_ = false;
  int item_ = -1;
  int open_ = -1; ///< innermost open span
  std::vector<Span> spans_;
};

} // namespace perfbench
