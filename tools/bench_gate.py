#!/usr/bin/env python3
"""Benchmark regression gate for califorms campaign reports.

Compares a freshly produced campaign JSON report (schema
califorms-campaign/v1, /v2 or /v3) against a committed baseline:

  * every value of every run record (counter blocks, per-core entries,
    fleet checksums and op mixes) is deterministic, so any drift is a
    hard failure — an intentional model change must regenerate the
    baseline with --update;
  * wall-clock time (the optional "timing" object) is gated with a
    relative threshold: the current elapsedMs may exceed the baseline
    by at most --time-threshold (default 0.15 = +15%); pass
    --no-time to skip the wall-clock comparison (e.g. when baseline
    and current runs come from different machines or when ctest runs
    several suites in parallel), or --time-only to skip the counter
    comparison (e.g. when gating wall clock against a previous CI
    run whose counters predate an intentional baseline update);
  * the optional "throughput" object (fleet reports) splits the same
    way: its deterministic counters (every member but opsPerSec) are
    exact-matched with the other counters, while the
    wall-clock-derived opsPerSec is gated as a floor — the current
    rate may fall short of the baseline by at most --ops-threshold
    (default 0.30 = -30%), and is skipped by --no-time alongside the
    elapsedMs check.

Uses only the Python standard library. Exit codes: 0 pass, 1 regression,
2 usage/IO error.

Usage:
  bench_gate.py CURRENT BASELINE [--time-threshold F] [--ops-threshold F]
                [--no-time | --time-only]
  bench_gate.py CURRENT BASELINE --update
"""

import argparse
import json
import sys


def load_report(path):
    try:
        with open(path, "rb") as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"bench_gate: cannot read {path}: {e}")
    schema = report.get("schema", "")
    if not schema.startswith("califorms-campaign/"):
        sys.exit(f"bench_gate: {path}: unexpected schema '{schema}'")
    return report


def run_key(run):
    return (run.get("benchmark"), run.get("variant"),
            run.get("layoutSeed"))


def index_runs(report, path):
    runs = {}
    for run in report.get("runs", []):
        key = run_key(run)
        if key in runs:
            sys.exit(f"bench_gate: {path}: duplicate run {key}")
        runs[key] = run
    return runs


def leaves(value, path=""):
    """Flatten a run record into {path: value}: members join with "."
    ("mem.l1d.misses"), list items with [i] ("cores[0].cycles"), and
    the wall-clock "timing" member is skipped."""
    if isinstance(value, dict):
        items = [(f"{path}.{k}" if path else k, v)
                 for k, v in value.items() if k != "timing"]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        return {path: value}
    return {p: leaf for sub, v in items for p, leaf in leaves(v, sub).items()}


def compare_counters(current, baseline):
    """Exact comparison of every value of every run record.

    Every leaf of a baseline run must be present in the current run
    with the same value; leaves only the current run has are not
    compared, so a report that gained a counter still gates.
    """
    failures = []
    cur_runs = index_runs(current, "current")
    base_runs = index_runs(baseline, "baseline")
    for key in sorted(base_runs, key=repr):
        if key not in cur_runs:
            failures.append(f"run {key} missing from current report")
            continue
        cur = leaves(cur_runs[key])
        for path, value in leaves(base_runs[key]).items():
            if path not in cur:
                failures.append(
                    f"run {key}: {path} missing from current report")
            elif cur[path] != value:
                failures.append(
                    f"run {key}: {path} {value} -> {cur[path]}")
    for key in sorted(cur_runs, key=repr):
        if key not in base_runs:
            failures.append(
                f"run {key} not in baseline (grid changed? "
                "regenerate with --update)")
    return failures


def compare_time(current, baseline, threshold):
    cur_t = current.get("timing", {}).get("elapsedMs")
    base_t = baseline.get("timing", {}).get("elapsedMs")
    if cur_t is None or base_t is None:
        return ["timing object missing (rerun without --no-time "
                "only on reports that include timing)"]
    if base_t <= 0:
        return []
    ratio = cur_t / base_t
    if ratio > 1.0 + threshold:
        return [f"wall clock regressed {ratio - 1.0:+.1%} "
                f"({base_t:.1f}ms -> {cur_t:.1f}ms, "
                f"threshold +{threshold:.0%})"]
    print(f"bench_gate: wall clock {ratio - 1.0:+.1%} vs baseline "
          f"({base_t:.1f}ms -> {cur_t:.1f}ms)")
    return []


def compare_throughput_counters(current, baseline):
    """Exact comparison of the deterministic throughput counters: every
    member but the wall-clock opsPerSec.

    Reports without a baseline throughput object (every non-fleet
    harness) are exempt; a baseline that has one pins the shape.
    """
    base_tp = baseline.get("throughput")
    if base_tp is None:
        return []
    cur_tp = current.get("throughput")
    if cur_tp is None:
        return ["throughput object missing from current report"]
    return [f"throughput.{field} {value} -> {cur_tp.get(field)}"
            for field, value in base_tp.items()
            if field != "opsPerSec" and cur_tp.get(field) != value]


def compare_throughput_rate(current, baseline, tolerance):
    """Floor-gate the wall-clock-derived replay rate.

    Unlike elapsedMs (lower is better, gated above), opsPerSec is
    higher-is-better: the current rate must reach at least
    baseline * (1 - tolerance). Faster is never a failure.
    """
    base_rate = baseline.get("throughput", {}).get("opsPerSec")
    if base_rate is None or base_rate <= 0:
        return []
    cur_rate = current.get("throughput", {}).get("opsPerSec")
    if cur_rate is None:
        return ["throughput.opsPerSec missing from current report "
                "(rerun without --no-timing)"]
    ratio = cur_rate / base_rate
    if ratio < 1.0 - tolerance:
        return [f"throughput regressed {ratio - 1.0:+.1%} "
                f"({base_rate:.0f} -> {cur_rate:.0f} ops/s, "
                f"floor -{tolerance:.0%})"]
    print(f"bench_gate: throughput {ratio - 1.0:+.1%} vs baseline "
          f"({base_rate:.0f} -> {cur_rate:.0f} ops/s)")
    return []


def main():
    parser = argparse.ArgumentParser(
        description="califorms benchmark regression gate")
    parser.add_argument("current", help="fresh campaign JSON report")
    parser.add_argument("baseline", help="committed baseline report")
    parser.add_argument("--time-threshold", type=float, default=0.15,
                        help="max relative wall-clock regression "
                             "(default 0.15 = +15%%)")
    parser.add_argument("--ops-threshold", type=float, default=0.30,
                        help="max relative ops/sec shortfall "
                             "(default 0.30 = -30%%)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--no-time", action="store_true",
                       help="skip the wall-clock comparison")
    group.add_argument("--time-only", action="store_true",
                       help="skip the counter comparison")
    parser.add_argument("--update", action="store_true",
                        help="overwrite the baseline with the current "
                             "report and exit")
    args = parser.parse_args()

    current = load_report(args.current)
    if args.update:
        try:
            with open(args.current, "rb") as src, \
                 open(args.baseline, "wb") as dst:
                dst.write(src.read())
        except OSError as e:
            sys.exit(f"bench_gate: cannot update baseline: {e}")
        print(f"bench_gate: baseline {args.baseline} updated")
        return 0

    baseline = load_report(args.baseline)
    failures = []
    if not args.time_only:
        failures += compare_counters(current, baseline)
        failures += compare_throughput_counters(current, baseline)
    if not args.no_time:
        failures += compare_time(current, baseline,
                                 args.time_threshold)
        failures += compare_throughput_rate(current, baseline,
                                            args.ops_threshold)

    if failures:
        print(f"bench_gate: FAIL ({len(failures)} regression(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    if args.time_only:
        print("bench_gate: PASS (wall clock within threshold)")
    else:
        n = len(current.get("runs", []))
        print(f"bench_gate: PASS ({n} runs match the baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
