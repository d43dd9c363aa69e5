// The four benchmark workloads (see perfbench/README.md for why each was
// chosen and which layer it stresses).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 2;   ///< host-thread budget (FleetConfig::host_jobs, ESARP_JOBS)
  bool tiny = false; ///< smoke-test sizes
  std::filesystem::path out_dir = "perfbench-out";
};

enum class Scope : std::uint8_t { kEndToEnd, kLayer };

struct Metric {
  Scope scope = Scope::kEndToEnd;
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A simulated value that must repeat exactly: exact text (%.17g for
/// reals, decimal for counts, hex for hashes).
struct Pin {
  std::string name;
  std::string value;
};

struct RunResult {
  std::vector<Metric> metrics;
  std::vector<Pin> pins;
  std::vector<std::string> notes;    ///< printed as "note ..." lines
  std::vector<std::string> failures; ///< one line per failed check
  std::uint64_t attempted = 0;       ///< items checked
  std::uint64_t failed = 0;          ///< items with at least one failed check
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload: set up, measure for cfg.seconds, check every output.
/// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] RunResult run_workload(const Config& cfg);

} // namespace perfbench
