#!/usr/bin/env python3
"""Repository benchmark: build esarp_perfbench, run one workload, print JSON.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1] [--threads T] [--tiny]
                             [--record-pins]

Run from the repository root. The first run configures and builds
perfbench/ (and the esarp libraries under src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Every line the
program prints is passed through; the last line is one JSON object:

    {"correct": true, "attempted": N, "failed": M,
     "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}

holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1). --workload all runs every workload of
BENCHMARK.json in turn, each ending with its own JSON line, and exits with
the worst exit code. At the default seed of
perfbench/expected.json the simulated values are also compared exactly
with the pins recorded there; --record-pins rewrites them instead.

Exit codes: 0 correct, 1 a correctness check or pin failed, 2 usage or no
sources to build, 3 build failed, 4 the program failed.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(jobs):
    """Configure (once) and build; return the binary path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no esarp sources under {ROOT / 'src'}; nothing to build")
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "esarp_perfbench",
                  "-j", str(jobs)])
    for cmd in steps:
        # Build output is shown only when the build fails; stdout must end
        # with the JSON result.
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode:
            sys.stderr.write(p.stdout)
            log("build failed: " + " ".join(cmd))
            return None
    return out / "esarp_perfbench"


def parse(lines):
    metrics, pins, result = {}, {}, None
    for line in lines:
        f = line.split()
        if len(f) == 5 and f[0] == "metric":
            metrics[f[2]] = (float(f[3]), f[4])
        elif len(f) == 3 and f[0] == "pin":
            pins[f[1]] = f[2]
        elif len(f) == 5 and f[0] == "result":
            result = (int(f[2]), int(f[4]))
    return metrics, pins, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (never compared with the pins)")
    ap.add_argument("--record-pins", action="store_true",
                    help="store this run's simulated values as the pins")
    args = ap.parse_args()

    binary = build(max(args.threads, 1))
    if binary is None:
        return 2 if not (ROOT / "src").is_dir() else 3
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.workload != "all":
        return run_one(args, bench, binary, args.workload)
    return max(run_one(args, bench, binary, w["name"])
               for w in bench["workloads"])


def run_one(args, bench, binary, workload):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads), "--out", str(ROOT / "perfbench-out")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        log("program timed out")
        return 4
    lines = proc.stdout.splitlines()
    for line in lines:
        print(line)
    if proc.returncode not in (0, 1):
        log(f"program exited {proc.returncode}")
        return 2 if proc.returncode == 2 else 4
    metrics, pins, result = parse(lines)
    if result is None:
        log("program printed no result line")
        return 4

    expected = json.loads(EXPECTED.read_text())
    pinned_run = not args.tiny and args.seed == expected["default_seed"]
    if args.record_pins:
        if not pinned_run:
            log(f"pins are recorded at the default seed "
                f"{expected['default_seed']} and full size only")
            return 2
        expected["pins"][workload] = pins
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        log(f"recorded {len(pins)} pins for {workload}")

    correct = proc.returncode == 0
    if pinned_run:
        want = expected["pins"].get(workload, {})
        for name in sorted(set(want) | set(pins)):
            if want.get(name) != pins.get(name):
                print(f"pin-drift {name} expected {want.get(name)} "
                      f"got {pins.get(name)}")
                correct = False

    declared = bench["per_layer" if args.trace else "end_to_end"]
    out = {}
    for d in declared:
        if d["name"] not in metrics:
            log(f"metric {d['name']} not reported on {workload}")
            return 4
        value, unit = metrics[d["name"]]
        if unit != d["unit"]:
            log(f"metric {d['name']} unit {unit} != declared {d['unit']}")
            return 4
        out[d["name"]] = {"value": value, "unit": unit}

    attempted, failed = result
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
