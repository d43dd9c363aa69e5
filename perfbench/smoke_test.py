#!/usr/bin/env python3
"""Smoke test of the repository benchmark (perfbench/run.py).

    python3 perfbench/smoke_test.py

Runs every workload at tiny size (--tiny) and asserts that:
  - every metric is printed by name with its unit, and the JSON result line
    holds exactly the metrics BENCHMARK.json declares for the mode;
  - every correctness check passes, at the default and the held-out seed;
  - the simulated values (pins, sim_* and serve_* metrics) are identical
    across two runs, under host-thread budgets 1 and 2, and traced;
  - the traced run writes a Chrome trace with a span for every layer call
    of the workload, and a self-time table whose self times sum to at most
    the traced wall time, with the tracing overhead.
Exits 0 when all hold, 1 on the first failure.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())

# Every end-to-end metric and its unit; the workloads that report each
# one beyond the common ones are listed in EXTRA.
E2E_UNITS = {
    "host_items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "sim_cycles": "cycles", "sim_energy_j": "J", "error_rate": "ratio",
    "sim_speedup_rel_err": "ratio", "serve_latency_p50_s": "s",
    "serve_latency_p99_s": "s", "serve_slo_attainment": "ratio",
    "serve_energy_per_image_j": "J",
}
EXTRA = {
    "ffbp_paper": {"sim_speedup_rel_err"},
    "gbp_crossover": set(),
    "af_mpmd": {"sim_speedup_rel_err"},
    "serve_chaos": {"serve_latency_p50_s", "serve_latency_p99_s",
                    "serve_slo_attainment", "serve_energy_per_image_j"},
}
COMMON = set(E2E_UNITS) - set().union(*EXTRA.values())
# Layer calls each workload makes, as span names.
SPANS = {
    "ffbp_paper": {"sar.scene", "sar.ffbp_ref", "core.ffbp_chip",
                   "core.ffbp_seq_chip", "perfbench.check"},
    "gbp_crossover": {"sar.scene", "sar.gbp_ref", "core.gbp_chip",
                      "perfbench.check"},
    "af_mpmd": {"autofocus.pairs_gen", "core.af_mpmd",
                "autofocus.criterion_ref", "perfbench.check"},
    "serve_chaos": {"serve.calibrate", "serve.trace_gen", "serve.fleet_run",
                    "telemetry.manifest_write", "perfbench.check"},
}


class Failed(Exception):
    pass


def check(ok, what):
    if not ok:
        raise Failed(what)


def run(workload, seed=1, threads=2, trace=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--tiny", "--seconds", "0.2", "--seed", str(seed),
           "--threads", str(threads), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    what = " ".join(cmd[2:])
    check(p.returncode == 0, f"{what}: exit {p.returncode}")
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{what}: {lines[-1]}")
    metrics, pins = {}, {}
    for line in lines[:-1]:
        f = line.split()
        if f and f[0] == "metric":
            check(len(f) == 5 and f[4], f"{what}: bad metric line {line!r}")
            metrics[f[2]] = (float(f[3]), f[4])
        elif f and f[0] == "pin":
            pins[f[1]] = f[2]
    declared = BENCH["per_layer" if trace else "end_to_end"]
    check(set(result["metrics"]) == {d["name"] for d in declared},
          f"{what}: JSON metrics differ from BENCHMARK.json")
    for d in declared:
        check(metrics.get(d["name"], (0, None))[1] == d["unit"]
              and result["metrics"][d["name"]]["unit"] == d["unit"],
              f"{what}: {d['name']} not printed with unit {d['unit']}")
    e2e = {n for n in metrics if n in E2E_UNITS}
    check(e2e == COMMON | EXTRA[workload],
          f"{what}: end-to-end metrics {sorted(e2e)}")
    for n in e2e:
        check(metrics[n][1] == E2E_UNITS[n], f"{what}: unit of {n}")
    simulated = dict(pins)
    simulated.update({n: v for n, (v, _) in metrics.items()
                      if n.startswith(("sim_", "serve_latency", "serve_slo",
                                       "serve_energy"))})
    return simulated


def check_trace(workload, seed=1):
    run_dir = ROOT / "perfbench-out" / f"{workload}-seed{seed}-trace"
    events = json.loads((run_dir / "trace.json").read_text())["traceEvents"]
    names = {e["name"] for e in events if e["ph"] == "X"}
    check(SPANS[workload] | {"perfbench.item"} <= names,
          f"{workload}: trace lacks spans {SPANS[workload] - names}")
    footer = {}
    for line in (run_dir / "self_time.tsv").read_text().splitlines():
        if line.startswith("# "):
            key, value = line[2:].split("\t")
            footer[key] = float(value)
    check(footer["self_sum_s"] <= footer["traced_wall_s"] * (1 + 1e-9),
          f"{workload}: self time {footer['self_sum_s']} > traced wall "
          f"{footer['traced_wall_s']}")
    check("trace_overhead_s_per_round" in footer,
          f"{workload}: no tracing overhead in the self-time table")


def main():
    for w in EXTRA:
        base = run(w)
        check(run(w) == base, f"{w}: simulated values differ between runs")
        check(run(w, threads=1) == base,
              f"{w}: simulated values differ under thread budget 1")
        check(run(w, trace=1) == base, f"{w}: tracing changed simulated values")
        check_trace(w)
        run(w, seed=EXPECTED["held_out_seed"])
        print(f"smoke {w}: ok", flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failed as e:
        print(f"smoke FAILED: {e}", file=sys.stderr)
        sys.exit(1)
