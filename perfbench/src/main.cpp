// esarp_perfbench: runs one benchmark workload and prints its metrics.
//
//   esarp_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                   [--threads T] [--tiny] [--out DIR]
//
// Output is line-oriented, one record per line:
//   metric <e2e|layer> <name> <value> <unit>
//   pin <name> <exact value>        simulated values that must repeat
//   note <text>                     Table I comparison, fault accounting, ...
//   fail <text>                     one per failed correctness check
//   result attempted <n> failed <m>
// perfbench/run.py turns this into the benchmark's JSON result line.
//
// Exit codes: 0 all checks passed, 1 a correctness check failed, 2 usage,
// 3 the run threw.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "esarp_perfbench: " << why << "\n"
            << "usage: esarp_perfbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--threads T] [--tiny] "
               "[--out DIR]\nworkloads:";
  for (const auto& w : perfbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") cfg.workload = next();
      else if (a == "--seed") cfg.seed = std::stoull(next());
      else if (a == "--seconds") cfg.seconds = std::stod(next());
      else if (a == "--trace") cfg.trace = std::stoi(next()) != 0;
      else if (a == "--threads") cfg.threads = std::stoi(next());
      else if (a == "--out") cfg.out_dir = next();
      else if (a == "--tiny") cfg.tiny = true;
      else throw std::invalid_argument("unknown argument " + a);
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (cfg.workload.empty()) return usage("--workload is required");
  if (cfg.threads < 1) return usage("--threads must be >= 1");
  // The host-thread budget also bounds every SweepRunner pool.
  setenv("ESARP_JOBS", std::to_string(cfg.threads).c_str(), 1);

  perfbench::RunResult res;
  try {
    res = perfbench::run_workload(cfg);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "esarp_perfbench: " << cfg.workload << ": " << e.what()
              << '\n';
    return 3;
  }

  std::printf("perfbench %s seed %llu seconds %g trace %d threads %d tiny %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.threads, cfg.tiny ? 1 : 0);
  for (const auto& m : res.metrics)
    std::printf("metric %s %s %.17g %s\n",
                m.scope == perfbench::Scope::kEndToEnd ? "e2e" : "layer",
                m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& p : res.pins)
    std::printf("pin %s %s\n", p.name.c_str(), p.value.c_str());
  for (const auto& n : res.notes) std::printf("note %s\n", n.c_str());
  for (const auto& f : res.failures) std::printf("fail %s\n", f.c_str());
  std::printf("result attempted %llu failed %llu\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  return res.failed == 0 ? 0 : 1;
}
