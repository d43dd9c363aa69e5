// Run manifest: the single JSON document every bench and `esarp chip` run
// writes next to its CSV artefacts (schema "esarp-run-manifest/1"):
//
//   {
//     "schema":   "esarp-run-manifest/1",
//     "tool":     "table1_ffbp",
//     "version":  "1.0.0",            // project version baked at build time
//     "chip":     { "rows": 4, ... },      // numeric chip configuration
//     "workload": { "n_pulses": 1024, ... },
//     "results":  { "makespan_cycles": ..., "energy_j": ..., ... },
//     "metrics":  { "counters": {...}, "gauges": {...},
//                   "histograms": {...} }  // full MetricsRegistry dump
//   }
//
// Manifests are the machine-readable before/after evidence for performance
// claims: tools/esarp_compare diffs two of them with per-metric thresholds
// and exits nonzero on regression (wired into CI).
#pragma once

#include <filesystem>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"

namespace esarp::telemetry {

/// Project version baked into manifests (CMake PROJECT_VERSION).
[[nodiscard]] const char* esarp_version();

class RunManifest {
public:
  explicit RunManifest(std::string tool) : tool_(std::move(tool)) {}

  /// Override the schema tag. The default is "esarp-run-manifest/1"; the
  /// fleet runtime writes "esarp-serve-manifest/3" (docs/serving.md) with
  /// the same section layout. esarp_compare accepts any esarp manifest
  /// family, so serve manifests stay diffable.
  void set_schema(std::string schema) { schema_ = std::move(schema); }
  [[nodiscard]] const std::string& schema() const { return schema_; }

  /// Numeric chip-configuration entry (rows, cols, clock_hz, ...).
  void add_chip(std::string name, double v) {
    chip_.emplace_back(std::move(name), v);
  }
  /// Numeric workload-parameter entry (n_pulses, n_range, fast_mode, ...).
  void add_workload(std::string name, double v) {
    workload_.emplace_back(std::move(name), v);
  }
  /// Numeric result entry (makespan_cycles, seconds, energy_j, ...).
  void add_result(std::string name, double v) {
    results_.emplace_back(std::move(name), v);
  }

  /// Attach the metrics registry dumped under "metrics". The pointee must
  /// outlive write(); null writes an empty metrics object.
  void set_metrics(const MetricsRegistry* m) { metrics_ = m; }

  [[nodiscard]] const std::string& tool() const { return tool_; }

  void write(std::ostream& os) const;
  /// Write to `path`, creating parent directories on demand.
  void write(const std::filesystem::path& path) const;

private:
  using Section = std::vector<std::pair<std::string, double>>;

  std::string tool_;
  std::string schema_ = "esarp-run-manifest/1";
  Section chip_;
  Section workload_;
  Section results_;
  const MetricsRegistry* metrics_ = nullptr;
};

} // namespace esarp::telemetry
