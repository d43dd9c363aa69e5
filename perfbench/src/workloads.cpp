#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>

#include "autofocus/criterion.hpp"
#include "autofocus/workload.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/autofocus_epiphany.hpp"
#include "core/ffbp_epiphany.hpp"
#include "core/gbp_epiphany.hpp"
#include "hostmodel/host_model.hpp"
#include "sar/ffbp.hpp"
#include "sar/gbp.hpp"
#include "sar/scene.hpp"
#include "serve/fleet.hpp"
#include "serve/trace.hpp"
#include "spans.hpp"
#include "telemetry/manifest.hpp"

namespace perfbench {
namespace {

using namespace esarp;

// Table I of the paper: simulated speed-up over the sequential i7-M620.
constexpr double kPaperFfbpSpeedup = 4.25; // 16-core SPMD FFBP
constexpr double kPaperAfSpeedup = 8.93;   // 13-core MPMD autofocus

// setup_s is the median of repeated set-ups: at least kMinSetupReps, and
// more (up to kMaxSetupReps) until kMinSetupS have passed, so a set-up of a
// few milliseconds still gets a steady median.
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 100;
constexpr double kMinSetupS = 0.5;
constexpr int kMinRounds = 3; // rounds measured even past the time budget
constexpr float kNoiseSigma = 0.05f;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics; a workload reports the ones that apply to it.
constexpr MetricDef kEndToEnd[] = {
    {"host_items_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_cycles", "cycles"},
    {"sim_energy_j", "J"},
    {"sim_speedup_rel_err", "ratio"},
    {"serve_latency_p50_s", "s"},
    {"serve_latency_p99_s", "s"},
    {"serve_slo_attainment", "ratio"},
    {"serve_energy_per_image_j", "J"},
    {"error_rate", "ratio"},
};

// Spans opened around layer calls. Each gives the per-layer metric
// "<span>_s": median seconds per call, 0 on a workload that never calls it.
constexpr const char* kLayerSpans[] = {
    "sar.scene",          "autofocus.pairs_gen",     "serve.trace_gen",
    "serve.calibrate",    "sar.ffbp_ref",            "core.ffbp_chip",
    "core.ffbp_seq_chip", "sar.gbp_ref",             "core.gbp_chip",
    "core.af_mpmd",       "autofocus.criterion_ref", "serve.fleet_run",
    "telemetry.manifest_write", "perfbench.check",
};

// Per-layer metrics that are not span times. Every workload reports every
// one of them, 0 where the workload does not exercise the layer.
constexpr MetricDef kLayerValues[] = {
    {"perfbench.trace_overhead_s", "s"},
    {"epiphany.engine_events", "count"},
    {"epiphany.engine_quanta", "count"},
    {"epiphany.host_ns_per_event", "ns"},
    {"epiphany.busy_cycles", "cycles"},
    {"epiphany.ext_stall_cycles", "cycles"},
    {"epiphany.dma_wait_cycles", "cycles"},
    {"epiphany.chan_wait_cycles", "cycles"},
    {"epiphany.barrier_wait_cycles", "cycles"},
    {"epiphany.noc_bytes", "bytes"},
    {"epiphany.ext_read_bytes", "bytes"},
    {"epiphany.ext_write_bytes", "bytes"},
    {"epiphany.utilization", "ratio"},
    {"core.ffbp_prefetch_hit_rate", "ratio"},
    {"hostmodel.intel_s", "s"},
    {"serve.host_s_per_attempt", "s"},
    {"serve.attempts", "count"},
    {"serve.retries", "count"},
    {"serve.migrations", "count"},
    {"serve.timeouts", "count"},
    {"serve.checksum_failures", "count"},
    {"serve.chip_kills", "count"},
    {"serve.jobs_shed", "count"},
    {"serve.jobs_late", "count"},
    {"serve.delivered_per_attempt", "ratio"},
    {"serve.shed_model_max_rel_err", "ratio"},
    {"fault.injected", "count"},
    {"fault.detected", "count"},
    {"fault.recovered", "count"},
    {"fault.recovered_per_detected", "ratio"},
};

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Independent seed for (run seed, input kind, index): the same --seed
/// always yields the same inputs.
std::uint64_t derive(std::uint64_t seed, std::uint64_t kind,
                     std::uint64_t index = 0) {
  SplitMix64 sm(seed ^ (kind << 56) ^ (index << 32));
  return sm.next();
}

bool bit_identical(const Array2D<cf32>& a, const Array2D<cf32>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cf32)) == 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/// Call `f` inside a span named `name`.
template <class F>
auto timed(SpanRecorder& rec, const char* name, F&& f) {
  const SpanRecorder::Scope scope(rec, name);
  return f();
}

/// Shared harness of one workload run: set-up repeats, the timed rounds,
/// correctness bookkeeping and the metric set.
class Bench {
public:
  explicit Bench(const Config& cfg)
      : cfg_(cfg),
        run_dir_(cfg.out_dir / (cfg.workload + "-seed" +
                                std::to_string(cfg.seed) +
                                (cfg.trace ? "-trace" : ""))) {}

  [[nodiscard]] SpanRecorder& rec() { return rec_; }
  [[nodiscard]] const std::filesystem::path& run_dir() const {
    return run_dir_;
  }

  /// Run `setup` at least kMinSetupReps times and until kMinSetupS have
  /// passed (traced in a traced run); setup_s is the median repeat.
  /// `setup` must rebuild its outputs from scratch each time.
  template <class F>
  void setup(F&& setup) {
    rec_.set_enabled(cfg_.trace);
    std::vector<double> walls;
    double sum = 0.0;
    while (walls.size() < kMinSetupReps ||
           (sum < kMinSetupS && walls.size() < kMaxSetupReps)) {
      const WallTimer t;
      setup();
      walls.push_back(t.elapsed_s());
      sum += walls.back();
    }
    rec_.set_enabled(false);
    setup_s_ = median(walls);
    if (cfg_.trace) traced_wall_s_ += sum;
  }

  /// Run `round(i)` on inputs i = 0, 1, ... until cfg.seconds have passed,
  /// with at least kMinRounds rounds and `min_inputs` distinct inputs. A
  /// traced run runs every input twice in a row, once traced and once
  /// not, alternating which goes first; the paired differences give the
  /// tracing overhead.
  template <class F>
  void measure(double items_per_round, F&& round, int min_inputs = 1) {
    items_per_round_ = items_per_round;
    const WallTimer total;
    const auto input_of = [&](int r) { return cfg_.trace ? r / 2 : r; };
    for (int r = 0; r < kMinRounds || input_of(r) < min_inputs ||
                    total.elapsed_s() < cfg_.seconds ||
                    (cfg_.trace && r % 2 == 1);
         ++r) {
      const int input = input_of(r);
      const bool traced = cfg_.trace && r % 2 == input % 2;
      rec_.set_enabled(traced);
      rec_.set_item(input);
      const WallTimer t;
      {
        const SpanRecorder::Scope item(rec_, "perfbench.item");
        round(input);
      }
      (traced ? traced_s_ : untraced_s_).push_back(t.elapsed_s());
      if (r == kMinRounds - 1) rss_mb_ = peak_rss_mb();
    }
    rec_.set_enabled(false);
    for (const double s : traced_s_) traced_wall_s_ += s;
  }

  /// Record `n` checked items of which `bad` failed; `what` names the
  /// failed check.
  void items(std::uint64_t n, std::uint64_t bad, const std::string& what) {
    out_.attempted += n;
    out_.failed += bad;
    if (bad > 0) out_.failures.push_back(what);
  }

  void e2e(const std::string& name, double v) { e2e_[name] = v; }
  void layer(const std::string& name, double v) {
    if (!layer_.contains(name))
      throw std::logic_error("perfbench: undeclared layer metric " + name);
    layer_[name] = v;
  }
  void pin(std::string name, std::string value) {
    out_.pins.push_back({std::move(name), std::move(value)});
  }
  void note(std::string line) { out_.notes.push_back(std::move(line)); }

  /// Per-layer sim-cycle breakdown of a chip run, summed over cores.
  void chip_layers(const ep::PerfReport& perf) {
    ep::CoreCounters sum;
    for (const auto& c : perf.per_core) {
      sum.busy += c.busy;
      sum.ext_stall += c.ext_stall;
      sum.dma_wait += c.dma_wait;
      sum.chan_wait += c.chan_wait;
      sum.barrier_wait += c.barrier_wait;
    }
    layer("epiphany.busy_cycles", static_cast<double>(sum.busy));
    layer("epiphany.ext_stall_cycles", static_cast<double>(sum.ext_stall));
    layer("epiphany.dma_wait_cycles", static_cast<double>(sum.dma_wait));
    layer("epiphany.chan_wait_cycles", static_cast<double>(sum.chan_wait));
    layer("epiphany.barrier_wait_cycles",
          static_cast<double>(sum.barrier_wait));
    layer("epiphany.noc_bytes", static_cast<double>(perf.noc_total.bytes));
    layer("epiphany.ext_read_bytes", static_cast<double>(perf.ext.read_bytes));
    layer("epiphany.ext_write_bytes",
          static_cast<double>(perf.ext.write_bytes));
    layer("epiphany.utilization", perf.utilization());
  }

  /// Engine counters of one round's chip runs, and host time per event
  /// over the traced rounds' `spans`.
  void engine_layers(std::uint64_t events, std::uint64_t quanta,
                     std::initializer_list<const char*> spans) {
    std::vector<double> per_round;
    for (const char* s : spans) {
      const auto d = rec_.durations_s(s);
      per_round.resize(std::max(per_round.size(), d.size()), 0.0);
      for (std::size_t i = 0; i < d.size(); ++i) per_round[i] += d[i];
    }
    layer("epiphany.engine_events", static_cast<double>(events));
    layer("epiphany.engine_quanta", static_cast<double>(quanta));
    layer("epiphany.host_ns_per_event",
          1e9 * ratio(median(per_round), static_cast<double>(events)));
  }

  /// Paper Table I comparison, printed and reported as a relative error.
  void paper_speedup(const std::string& what, double sim, double paper) {
    const double rel_err = std::abs(sim - paper) / paper;
    e2e("sim_speedup_rel_err", rel_err);
    note("table1 " + what + " simulated " + exact(sim) + "x paper " +
         exact(paper) + "x rel_err " + exact(rel_err));
  }

  RunResult finish() {
    e2e("host_items_per_s", items_per_round_ / median(untraced_s_));
    std::string rounds = "rounds_s";
    for (const double s : untraced_s_) rounds += " " + exact(s);
    note(rounds);
    e2e("setup_s", setup_s_);
    e2e("error_rate",
        ratio(static_cast<double>(out_.failed),
              static_cast<double>(out_.attempted)));
    e2e("peak_rss_mb", rss_mb_);
    for (const auto& d : kEndToEnd) {
      if (const auto it = e2e_.find(d.name); it != e2e_.end())
        out_.metrics.push_back({Scope::kEndToEnd, d.name, it->second, d.unit});
    }
    if (cfg_.trace) {
      std::vector<double> diffs;
      for (std::size_t i = 0; i < traced_s_.size(); ++i)
        diffs.push_back(traced_s_[i] - untraced_s_[i]);
      const double overhead = median(diffs);
      layer("perfbench.trace_overhead_s", overhead);
      for (const char* s : kLayerSpans)
        out_.metrics.push_back({Scope::kLayer, std::string(s) + "_s",
                                median(rec_.durations_s(s)), "s"});
      for (const auto& d : kLayerValues)
        out_.metrics.push_back({Scope::kLayer, d.name, layer_[d.name], d.unit});
      rec_.write_chrome_trace(run_dir_ / "trace.json");
      rec_.write_self_time_table(run_dir_ / "self_time.tsv", traced_wall_s_,
                                 overhead);
      note("trace " + (run_dir_ / "trace.json").string() + " self-time " +
           (run_dir_ / "self_time.tsv").string());
    }
    return std::move(out_);
  }

private:
  static std::map<std::string, double> declared_layers() {
    std::map<std::string, double> m;
    for (const auto& d : kLayerValues) m[d.name] = 0.0;
    return m;
  }

  const Config& cfg_;
  std::filesystem::path run_dir_;
  SpanRecorder rec_;
  RunResult out_;
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layer_ = declared_layers();
  double setup_s_ = 0.0;
  double items_per_round_ = 0.0;
  double traced_wall_s_ = 0.0;
  // Peak RSS over set-up and the first kMinRounds rounds: later rounds
  // replay inputs, and how many fit in the time budget varies by run.
  double rss_mb_ = 0.0;
  std::vector<double> traced_s_, untraced_s_;
};

Array2D<cf32> make_scene(SpanRecorder& rec, const sar::RadarParams& p,
                         std::uint64_t seed) {
  const SpanRecorder::Scope scope(rec, "sar.scene");
  auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  Rng rng(seed);
  sar::add_noise(data, rng, kNoiseSigma);
  return data;
}

std::vector<Array2D<cf32>> make_scenes(Bench& b, const Config& cfg,
                                       const sar::RadarParams& p,
                                       std::size_t n) {
  std::vector<Array2D<cf32>> scenes;
  b.setup([&] {
    scenes.clear();
    for (std::size_t i = 0; i < n; ++i)
      scenes.push_back(make_scene(b.rec(), p, derive(cfg.seed, 1, i)));
  });
  return scenes;
}

// One full-size scene per round: host reference, 16-core SPMD and 1-core
// sequential chip runs, both images checked bit for bit.
RunResult ffbp_paper(const Config& cfg) {
  Bench b(cfg);
  SpanRecorder& rec = b.rec();
  const auto p = cfg.tiny ? sar::test_params(64, 101) : sar::paper_params();
  const auto scenes = make_scenes(b, cfg, p, cfg.tiny ? 2 : 3);

  core::FfbpMapOptions spmd;
  spmd.n_cores = 16;
  core::FfbpSimResult head, head_seq;
  host::HostWork head_work;
  b.measure(1.0, [&](int input) {
    const auto& data = scenes[static_cast<std::size_t>(input) % scenes.size()];
    auto ref = timed(rec, "sar.ffbp_ref", [&] { return sar::ffbp(data, p); });
    auto par = timed(rec, "core.ffbp_chip",
                     [&] { return core::run_ffbp_epiphany(data, p, spmd); });
    auto seq = timed(rec, "core.ffbp_seq_chip", [&] {
      return core::run_ffbp_sequential_epiphany(data, p);
    });
    {
      const SpanRecorder::Scope check(rec, "perfbench.check");
      const bool par_ok = bit_identical(par.image, ref.image.data);
      const bool seq_ok = bit_identical(seq.image, ref.image.data);
      b.items(1, par_ok && seq_ok ? 0 : 1,
              "ffbp_paper input " + std::to_string(input) + ": " +
                  (par_ok ? "" : "16-core image != sar::ffbp ") +
                  (seq_ok ? "" : "1-core image != sar::ffbp"));
    }
    if (input == 0) {
      head = std::move(par);
      head_seq = std::move(seq);
      head_work = ref.host_work;
    }
  });

  const double intel_s = host::HostModel().seconds(head_work);
  b.e2e("sim_cycles", static_cast<double>(head.cycles));
  b.e2e("sim_energy_j", head.energy.total_j());
  b.paper_speedup("ffbp_16core_vs_i7", intel_s / head.seconds,
                  kPaperFfbpSpeedup);
  b.pin("sim_cycles", std::to_string(head.cycles));
  b.pin("sim_energy_j", exact(head.energy.total_j()));
  b.pin("seq_sim_cycles", std::to_string(head_seq.cycles));

  b.chip_layers(head.perf);
  b.engine_layers(head.perf.engine_events + head_seq.perf.engine_events,
                  head.perf.engine_quanta + head_seq.perf.engine_quanta,
                  {"core.ffbp_chip", "core.ffbp_seq_chip"});
  std::uint64_t hits = 0, fetches = 0;
  for (const auto& l : head.prefetch_stats) {
    hits += l.local_hits;
    fetches += l.local_hits + l.ext_misses;
  }
  b.layer("core.ffbp_prefetch_hit_rate",
          ratio(static_cast<double>(hits), static_cast<double>(fetches)));
  b.layer("hostmodel.intel_s", intel_s);
  return b.finish();
}

// One reduced scene per round through host GBP and 16-core chip GBP.
RunResult gbp_crossover(const Config& cfg) {
  Bench b(cfg);
  SpanRecorder& rec = b.rec();
  const auto p = cfg.tiny ? sar::test_params(32, 51) : sar::test_params(256, 251);
  const auto scenes = make_scenes(b, cfg, p, cfg.tiny ? 2 : 4);

  core::GbpSimResult head;
  host::HostWork head_work;
  b.measure(1.0, [&](int input) {
    const auto& data = scenes[static_cast<std::size_t>(input) % scenes.size()];
    auto ref = timed(rec, "sar.gbp_ref", [&] { return sar::gbp(data, p); });
    auto chip = timed(rec, "core.gbp_chip",
                      [&] { return core::run_gbp_epiphany(data, p, 16); });
    {
      const SpanRecorder::Scope check(rec, "perfbench.check");
      b.items(1, bit_identical(chip.image, ref.image.data) ? 0 : 1,
              "gbp_crossover input " + std::to_string(input) +
                  ": 16-core image != sar::gbp");
    }
    if (input == 0) {
      head = std::move(chip);
      head_work = ref.host_work;
    }
  });

  b.e2e("sim_cycles", static_cast<double>(head.cycles));
  b.e2e("sim_energy_j", head.energy.total_j());
  b.pin("sim_cycles", std::to_string(head.cycles));
  b.pin("sim_energy_j", exact(head.energy.total_j()));
  b.chip_layers(head.perf);
  b.engine_layers(head.perf.engine_events, head.perf.engine_quanta,
                  {"core.gbp_chip"});
  b.layer("hostmodel.intel_s", host::HostModel().seconds(head_work));
  return b.finish();
}

// A batch of seeded block pairs per round through the 13-core MPMD
// pipeline; every criterion must equal af::criterion_sweep's.
RunResult af_mpmd(const Config& cfg) {
  Bench b(cfg);
  SpanRecorder& rec = b.rec();
  const af::AfParams ap;
  const std::size_t n_pairs = cfg.tiny ? 64 : 4096;
  const std::size_t batch = cfg.tiny ? 32 : 512;

  std::vector<af::BlockPair> pairs;
  b.setup([&] {
    const SpanRecorder::Scope scope(rec, "autofocus.pairs_gen");
    pairs.clear();
    Rng rng(derive(cfg.seed, 2));
    for (std::size_t i = 0; i < n_pairs; ++i)
      pairs.push_back(
          af::synthetic_block_pair(rng, ap, rng.uniform_f(-0.6f, 0.6f)));
  });

  core::AfSimResult head;
  host::HostWork head_work;
  b.measure(static_cast<double>(batch), [&](int input) {
    const std::size_t first =
        static_cast<std::size_t>(input) % (n_pairs / batch) * batch;
    const std::span<const af::BlockPair> chunk(pairs.data() + first, batch);
    auto mpmd = timed(rec, "core.af_mpmd",
                      [&] { return core::run_autofocus_mpmd(chunk, ap); });
    const auto refs = timed(rec, "autofocus.criterion_ref", [&] {
      std::vector<af::CriterionResult> out;
      out.reserve(chunk.size());
      for (const auto& bp : chunk)
        out.push_back(af::criterion_sweep(bp.minus, bp.plus, ap));
      return out;
    });
    {
      const SpanRecorder::Scope check(rec, "perfbench.check");
      std::uint64_t bad = 0;
      for (std::size_t i = 0; i < chunk.size(); ++i)
        bad += i < mpmd.criteria.size() && mpmd.criteria[i] == refs[i].criteria
                   ? 0
                   : 1;
      b.items(chunk.size(), bad,
              "af_mpmd input " + std::to_string(input) + ": " +
                  std::to_string(bad) +
                  " pair(s) with MPMD criteria != af::criterion_sweep");
    }
    if (input == 0) {
      head = std::move(mpmd);
      head_work = {};
      for (const auto& c : refs) head_work += c.host_work;
    }
  });

  const double intel_s = host::HostModel().seconds(head_work);
  const double intel_px_per_s =
      static_cast<double>(batch * ap.pixels()) / intel_s;
  b.e2e("sim_cycles", static_cast<double>(head.cycles));
  b.e2e("sim_energy_j", head.energy.total_j());
  b.paper_speedup("autofocus_13core_vs_i7",
                  head.pixels_per_second / intel_px_per_s, kPaperAfSpeedup);
  b.pin("sim_cycles", std::to_string(head.cycles));
  b.pin("sim_energy_j", exact(head.energy.total_j()));
  b.chip_layers(head.perf);
  b.engine_layers(head.perf.engine_events, head.perf.engine_quanta,
                  {"core.af_mpmd"});
  b.layer("hostmodel.intel_s", intel_s);
  return b.finish();
}

// Chaos campaigns on a 4-chip fleet: a pool of seeded open-loop Poisson
// traces at a fixed share of calibrated capacity, replayed round-robin.
RunResult serve_chaos(const Config& cfg) {
  constexpr int kChips = 4;
  constexpr double kLoad = 0.7;          // offered load / fleet capacity
  constexpr double kDeadlineFactor = 4.0; // deadline / clean service time
  constexpr double kDmaCorruptRate = 1e-3;
  constexpr double kChipKillRate = 2e-4; // per attempt; kills are permanent
  constexpr std::size_t kCalibrationWaves = 8;

  Bench b(cfg);
  SpanRecorder& rec = b.rec();
  const std::size_t n_traces = cfg.tiny ? 2 : 3;

  serve::TraceParams tp;
  tp.n_jobs = cfg.tiny ? 60 : 1000;
  // The overload mix the repo documents and benchmarks (docs/serving.md,
  // bench/overload_serve.cpp): priorities 0.3/0.5/0.2, deadline jitter 0.7.
  tp.frac_low = 0.3;
  tp.frac_high = 0.2;
  tp.deadline_jitter = 0.7;
  serve::FleetConfig fleet;
  fleet.n_chips = kChips;
  fleet.host_jobs = cfg.threads;
  fleet.policy.shed.enabled = true;
  fleet.chaos.dma_corrupt_rate = kDmaCorruptRate;
  fleet.chaos.chip_kill_rate = kChipKillRate;

  double clean_s = 0.0;
  std::vector<serve::ArrivalTrace> traces;
  b.setup([&] {
    const SpanRecorder::Scope calibrate(rec, "serve.calibrate");
    // One job alone on a clean chip gives the clean service time the
    // deadlines scale with.
    serve::FleetConfig one;
    one.n_chips = 1;
    one.host_jobs = cfg.threads;
    serve::TraceParams single;
    single.n_jobs = 1;
    clean_s =
        serve::Fleet(one).run(serve::make_trace(single)).jobs.at(0).latency_s;
    // Capacity under the campaigns' transfer faults (no kills): a burst
    // that keeps every chip busy for kCalibrationWaves service times.
    serve::FleetConfig busy = fleet;
    busy.chaos.chip_kill_rate = 0.0;
    busy.chaos.seed = derive(cfg.seed, 5);
    serve::TraceParams burst;
    burst.n_jobs = kCalibrationWaves * kChips;
    burst.rate_hz = 1e12;
    const double makespan_s =
        serve::Fleet(busy).run(serve::make_trace(burst)).makespan_s;
    tp.rate_hz = kLoad * static_cast<double>(burst.n_jobs) / makespan_s;
    tp.deadline_s = kDeadlineFactor * clean_s;
    traces.clear();
    for (std::size_t i = 0; i < n_traces; ++i) {
      tp.seed = derive(cfg.seed, 3, i);
      traces.push_back(
          timed(rec, "serve.trace_gen", [&] { return serve::make_trace(tp); }));
    }
  });

  std::vector<serve::ServeReport> first; // first pass over the trace pool
  const auto manifest = b.run_dir() / "serve_chaos.manifest.json";
  b.measure(static_cast<double>(tp.n_jobs), [&](int input) {
    const std::size_t t = static_cast<std::size_t>(input) % n_traces;
    serve::FleetConfig c = fleet;
    c.chaos.seed = derive(cfg.seed, 4, t);
    auto rep = timed(rec, "serve.fleet_run",
                     [&] { return serve::Fleet(c).run(traces[t]); });
    {
      const SpanRecorder::Scope write(rec, "telemetry.manifest_write");
      telemetry::RunManifest m("perfbench_serve_chaos");
      serve::fill_serve_manifest(m, c, traces[t], rep);
      m.write(manifest);
    }
    {
      const SpanRecorder::Scope check(rec, "perfbench.check");
      const auto& k = rep.counters;
      const std::uint64_t total = traces[t].jobs.size();
      const std::uint64_t tiled =
          k.jobs_met + k.jobs_late + k.jobs_degraded + k.jobs_shed;
      const std::uint64_t untiled = tiled > total ? tiled - total : total - tiled;
      const bool same = t >= first.size() ||
                        rep.schedule_hash == first[t].schedule_hash;
      b.items(total,
              std::min(total, k.jobs_lost + untiled + (same ? 0 : total)),
              "serve_chaos input " + std::to_string(input) + ": lost " +
                  std::to_string(k.jobs_lost) + ", met+late+degraded+shed " +
                  std::to_string(tiled) + " of " + std::to_string(total) +
                  (same ? "" : ", schedule_hash differs from the first replay"));
    }
    if (t == first.size()) first.push_back(std::move(rep));
  }, static_cast<int>(n_traces) + 1); // every run replays a trace

  // Simulated figures pooled over the first pass: a pure function of seed.
  serve::ServeCounters k;
  std::vector<double> latencies;
  std::uint64_t sim_cycles = 0;
  double energy_j = 0.0, shed_model_err = 0.0;
  for (std::size_t t = 0; t < first.size(); ++t) {
    const auto& rep = first[t];
    for (const auto& j : rep.jobs) {
      sim_cycles += j.sim_cycles;
      if (j.state != serve::JobState::kShed) latencies.push_back(j.latency_s);
    }
    const auto& c = rep.counters;
    k.jobs_total += c.jobs_total;
    k.jobs_met += c.jobs_met;
    k.jobs_late += c.jobs_late;
    k.jobs_shed += c.jobs_shed;
    k.attempts += c.attempts;
    k.retries += c.retries;
    k.migrations += c.migrations;
    k.timeouts += c.timeouts;
    k.checksum_failures += c.checksum_failures;
    k.chip_kills += c.chip_kills;
    k.faults_injected += c.faults_injected;
    k.faults_detected += c.faults_detected;
    k.faults_recovered += c.faults_recovered;
    energy_j += rep.energy_total_j;
    shed_model_err = std::max(shed_model_err, rep.shed_model_max_rel_err);
    b.pin("schedule_hash." + std::to_string(t), hex(rep.schedule_hash));
  }
  const double delivered = static_cast<double>(k.jobs_total - k.jobs_shed);
  const double p50 = serve::percentile(latencies, 0.50);
  const double p99 = serve::percentile(latencies, 0.99);
  const double slo = ratio(static_cast<double>(k.jobs_met),
                           static_cast<double>(k.jobs_total));
  b.e2e("sim_cycles", static_cast<double>(sim_cycles));
  b.e2e("sim_energy_j", energy_j);
  b.e2e("serve_latency_p50_s", p50);
  b.e2e("serve_latency_p99_s", p99);
  b.e2e("serve_slo_attainment", slo);
  b.e2e("serve_energy_per_image_j", ratio(energy_j, delivered));
  b.pin("sim_cycles", std::to_string(sim_cycles));
  b.pin("sim_energy_j", exact(energy_j));
  b.pin("serve_latency_p50_s", exact(p50));
  b.pin("serve_latency_p99_s", exact(p99));
  b.pin("serve_slo_attainment", exact(slo));

  std::vector<double> per_attempt;
  for (const auto& s : rec.spans())
    if (std::strcmp(s.name, "serve.fleet_run") == 0)
      per_attempt.push_back(
          1e-9 * static_cast<double>(s.end_ns - s.start_ns) /
          static_cast<double>(
              first[static_cast<std::size_t>(s.item) % n_traces]
                  .counters.attempts));
  b.layer("serve.host_s_per_attempt", median(per_attempt));
  b.layer("serve.attempts", static_cast<double>(k.attempts));
  b.layer("serve.retries", static_cast<double>(k.retries));
  b.layer("serve.migrations", static_cast<double>(k.migrations));
  b.layer("serve.timeouts", static_cast<double>(k.timeouts));
  b.layer("serve.checksum_failures", static_cast<double>(k.checksum_failures));
  b.layer("serve.chip_kills", static_cast<double>(k.chip_kills));
  b.layer("serve.jobs_shed", static_cast<double>(k.jobs_shed));
  b.layer("serve.jobs_late", static_cast<double>(k.jobs_late));
  b.layer("serve.delivered_per_attempt",
          ratio(delivered, static_cast<double>(k.attempts)));
  b.layer("serve.shed_model_max_rel_err", shed_model_err);
  b.layer("fault.injected", static_cast<double>(k.faults_injected));
  b.layer("fault.detected", static_cast<double>(k.faults_detected));
  b.layer("fault.recovered", static_cast<double>(k.faults_recovered));
  b.layer("fault.recovered_per_detected",
          ratio(static_cast<double>(k.faults_recovered),
                static_cast<double>(k.faults_detected)));
  b.note("serve_latency samples " + std::to_string(latencies.size()) +
         " (p99 has " + std::to_string(latencies.size() / 100) +
         " beyond it); faults injected " + std::to_string(k.faults_injected) +
         " detected " + std::to_string(k.faults_detected) + " recovered " +
         std::to_string(k.faults_recovered));
  return b.finish();
}

using WorkloadFn = RunResult (*)(const Config&);
const std::vector<std::pair<std::string, WorkloadFn>>& registry() {
  static const std::vector<std::pair<std::string, WorkloadFn>> r = {
      {"ffbp_paper", ffbp_paper},
      {"gbp_crossover", gbp_crossover},
      {"af_mpmd", af_mpmd},
      {"serve_chaos", serve_chaos},
  };
  return r;
}

} // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& [name, fn] : registry()) n.push_back(name);
    return n;
  }();
  return names;
}

RunResult run_workload(const Config& cfg) {
  for (const auto& [name, fn] : registry())
    if (name == cfg.workload) return fn(cfg);
  throw std::invalid_argument("unknown workload: " + cfg.workload);
}

} // namespace perfbench
