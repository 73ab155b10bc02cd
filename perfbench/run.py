#!/usr/bin/env python3
"""Steady-state simulator benchmark: build, run one workload, report.

    python3 perfbench/run.py --workload churn|chase|guarded --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record SEED [SEED ...]

Run from the root of a checkout. The first call builds the simulator
library and the benchmark from source into $CARGO_TARGET_DIR (default
.bench_build). A run prints every metric by name with its unit and, as
its last line, one JSON object: {"correct", "attempted", "failed",
"metrics"} with the end-to-end metrics of BENCHMARK.json (--trace 0) or
its per-layer metrics (--trace 1). --self-test builds and runs the
benchmark's own tests; --record rewrites the committed counter baseline
(perfbench/fingerprints.json) for the given seeds of every workload.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "fingerprints.json"
WORKLOADS = ("churn", "chase", "guarded")
# A run of the built program must end well inside the 180 s a benchmark
# run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(target):
    """Configure once, then build @p target incrementally; all build
    output goes to stderr so stdout stays the benchmark's."""
    if not (ROOT / "src" / "sim" / "machine.hh").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out / target


def measure(binary, workload, seed, seconds, trace, fingerprint_only=False):
    scratch = build_dir() / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(scratch)]
    if fingerprint_only:
        cmd.append("--fingerprint")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload}: benchmark program exited {done.returncode}")
    return json.loads(lines[-1])


def load_baseline():
    if BASELINE.is_file():
        return json.loads(BASELINE.read_text())
    return {"seeds": {}, "fingerprints": {}}


def run_benchmark(args):
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        fail(f"no {spec_file}")
    spec = json.loads(spec_file.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    binary = build("perfbench")
    result = measure(binary, args.workload, args.seed, args.seconds,
                     args.trace)

    # The simulated counters must repeat exactly: within this run (every
    # replay) and against the committed baseline for this seed.
    recorded = load_baseline()["fingerprints"].get(args.workload, {})
    baseline = recorded.get(str(args.seed))
    matches = result["consistent"] and (
        baseline is None or baseline == result["fingerprint"])
    metrics = dict(result["metrics"])
    metrics["sim.counters_match"] = 1 if matches else 0

    for v in result["violations"]:
        print(f"workload property violated: {v}")
    if baseline is None:
        print(f"no committed fingerprint for {args.workload} seed "
              f"{args.seed}; sim.counters_match checks this run only")
    elif baseline != result["fingerprint"]:
        print("simulated counters differ from the committed baseline")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"samples {json.dumps(result['samples'])}")
    print("failed_op_share {:.6g} ops/ops  ({} of {} ops)".format(
        metrics["failed_op_share"], result["failed"], result["attempted"]))
    print("medians: ops_per_s {:.6g} ops/s, setup_s {:.6g} s (the "
          "reported values are the run's best)".format(
              metrics["ops_per_s_median"], metrics["setup_s_median"]))
    print("model unvalidated: no reference measurements, no error figure; "
          "simulated counts start from cold caches")
    out = {}
    for m in declared:
        if m["name"] not in metrics:
            fail(f"program did not report {m['name']}")
        value = metrics[m["name"]]
        print(f"{m['name']} {value:.6g} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = result["correct"] and result["consistent"]
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))


def record(seeds):
    binary = build("perfbench")
    baseline = load_baseline()
    for workload in WORKLOADS:
        entry = baseline["fingerprints"].setdefault(workload, {})
        for seed in seeds:
            fp = measure(binary, workload, seed, 0, 0,
                         fingerprint_only=True)
            entry[str(seed)] = fp
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    lines = ["{", '  "seeds": ' + json.dumps(baseline["seeds"]) + ",",
             '  "fingerprints": {']
    for wi, workload in enumerate(WORKLOADS):
        entries = baseline["fingerprints"][workload]
        keys = sorted(entries, key=int)
        lines.append(f'    "{workload}": {{')
        for ki, key in enumerate(keys):
            comma = "," if ki + 1 < len(keys) else ""
            lines.append(f'      "{key}": {json.dumps(entries[key])}{comma}')
        lines.append("    }" + ("," if wi + 1 < len(WORKLOADS) else ""))
    lines += ["  }", "}"]
    BASELINE.write_text("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([str(build("perfbench_tests"))],
                                cwd=build_dir()).returncode)
    if args.record:
        record(args.record)
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed is None:
        args.seed = load_baseline()["seeds"].get("default", 1)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    run_benchmark(args)


if __name__ == "__main__":
    main()
