"""Unit tests for bench_gate.py (run as `python3 -m unittest` from
tools/, wired into ctest as tools.bench_gate.unittest).

Covers the three contract areas of the gate: exact comparison of every
run-record value (drift in any block, per-core entry or fleet field
fails, a vanished value fails, grid changes fail in both directions),
the relative
wall-clock threshold (edge-exact passes, above fails, missing timing
reports), and the usage/IO paths (missing or corrupt baseline exits 2
via SystemExit, --update rewrites the baseline byte for byte).
"""

import contextlib
import io
import json
import os
import tempfile
import unittest
from unittest import mock

import bench_gate


def make_report(runs, timing_ms=None, throughput=None):
    report = {"schema": "califorms-campaign/v2", "runs": runs}
    if timing_ms is not None:
        report["timing"] = {"jobs": 1, "elapsedMs": timing_ms}
    if throughput is not None:
        report["throughput"] = throughput
    return report


def make_throughput(ops=20000, batch=256, shards=4, tenants=4,
                    rate=None):
    tp = {"opsReplayed": ops, "batchOps": batch, "shards": shards,
          "tenants": tenants}
    if rate is not None:
        tp["opsPerSec"] = rate
    return tp


def make_run(benchmark="mcf", variant="base", seed=1000, cycles=100,
             instructions=50, mem=None):
    return {
        "benchmark": benchmark,
        "variant": variant,
        "layoutSeed": seed,
        "cycles": cycles,
        "instructions": instructions,
        "mem": {"l1d.misses": 7} if mem is None else mem,
    }


class CompareCountersTest(unittest.TestCase):
    def test_identical_reports_pass(self):
        report = make_report([make_run(), make_run(variant="full")])
        self.assertEqual(
            bench_gate.compare_counters(report, report), [])

    def test_cycle_drift_fails(self):
        base = make_report([make_run(cycles=100)])
        cur = make_report([make_run(cycles=101)])
        failures = bench_gate.compare_counters(cur, base)
        self.assertEqual(len(failures), 1)
        self.assertIn("cycles", failures[0])
        self.assertIn("100", failures[0])
        self.assertIn("101", failures[0])

    def test_mem_stat_drift_fails(self):
        base = make_report([make_run(mem={"l1d.misses": 7})])
        cur = make_report([make_run(mem={"l1d.misses": 8})])
        failures = bench_gate.compare_counters(cur, base)
        self.assertEqual(len(failures), 1)
        self.assertIn("mem.l1d.misses", failures[0])

    def test_only_shared_mem_stats_compared(self):
        # A v2 current report gates cleanly against a v1 baseline: the
        # compared surface is the intersection of the recorded stats.
        base = make_report([make_run(mem={"l1d.misses": 7})])
        cur = make_report(
            [make_run(mem={"l1d.misses": 7, "wbq.hits": 3})])
        self.assertEqual(bench_gate.compare_counters(cur, base), [])

    def assert_one_drift(self, base_run, cur_run, path):
        failures = bench_gate.compare_counters(
            make_report([cur_run]), make_report([base_run]))
        self.assertEqual(len(failures), 1, failures)
        self.assertIn(path, failures[0])

    def test_memlp_drift_fails(self):
        base = make_run()
        base["memlp"] = {"mshr.allocations": 4, "dram.rowHits": 9}
        cur = json.loads(json.dumps(base))
        cur["memlp"]["dram.rowHits"] += 12345
        self.assert_one_drift(base, cur, "memlp.dram.rowHits")

    def test_cores_drift_fails(self):
        base = make_run()
        base["cores"] = [{"core": 0, "cycles": 90, "l1dMisses": 3},
                         {"core": 1, "cycles": 80, "l1dMisses": 4}]
        cur = json.loads(json.dumps(base))
        cur["cores"][0]["l1dMisses"] += 7
        self.assert_one_drift(base, cur, "cores[0].l1dMisses")

    def test_security_drift_fails(self):
        base = make_run()
        base["security"] = {"scenario": "scan", "trials": 8,
                            "successes": 0, "detections": 8}
        cur = json.loads(json.dumps(base))
        cur["security"]["detections"] -= 1
        self.assert_one_drift(base, cur, "security.detections")

    def test_fleet_checksum_and_op_mix_drift_fail(self):
        base = make_run()
        base["checksum"] = "00000000000000ff"
        base["opsByKind"] = {"loads": 5, "stores": 2}
        cur = json.loads(json.dumps(base))
        cur["checksum"] = "00000000000000fe"
        self.assert_one_drift(base, cur, "checksum")
        cur = json.loads(json.dumps(base))
        cur["opsByKind"]["stores"] += 1
        self.assert_one_drift(base, cur, "opsByKind.stores")

    def test_missing_value_fails(self):
        # A counter the baseline pins may not vanish from the report.
        base = make_run()
        base["heap"] = {"allocs": 2, "frees": 1}
        cur = json.loads(json.dumps(base))
        del cur["heap"]["frees"]
        self.assert_one_drift(base, cur, "heap.frees missing")

    def test_missing_run_fails(self):
        base = make_report([make_run(), make_run(variant="full")])
        cur = make_report([make_run()])
        failures = bench_gate.compare_counters(cur, base)
        self.assertEqual(len(failures), 1)
        self.assertIn("missing from current", failures[0])

    def test_extra_run_fails(self):
        # A grown grid is a baseline change, not a silent pass.
        base = make_report([make_run()])
        cur = make_report([make_run(), make_run(variant="full")])
        failures = bench_gate.compare_counters(cur, base)
        self.assertEqual(len(failures), 1)
        self.assertIn("not in baseline", failures[0])


class CompareTimeTest(unittest.TestCase):
    def compare(self, cur_ms, base_ms, threshold):
        with contextlib.redirect_stdout(io.StringIO()):
            return bench_gate.compare_time(
                make_report([], timing_ms=cur_ms),
                make_report([], timing_ms=base_ms), threshold)

    def test_faster_passes(self):
        self.assertEqual(self.compare(90.0, 100.0, 0.15), [])

    def test_exactly_at_threshold_passes(self):
        # The contract is "may exceed by at most threshold": 1.5x at
        # +50% is the inclusive edge (values chosen exact in binary).
        self.assertEqual(self.compare(150.0, 100.0, 0.5), [])

    def test_above_threshold_fails(self):
        failures = self.compare(151.0, 100.0, 0.5)
        self.assertEqual(len(failures), 1)
        self.assertIn("wall clock regressed", failures[0])

    def test_missing_timing_reports(self):
        failures = bench_gate.compare_time(
            make_report([]), make_report([], timing_ms=1.0), 0.15)
        self.assertEqual(len(failures), 1)
        self.assertIn("timing object missing", failures[0])

    def test_zero_baseline_skipped(self):
        self.assertEqual(self.compare(100.0, 0.0, 0.15), [])


class CompareThroughputCountersTest(unittest.TestCase):
    def test_no_baseline_throughput_exempt(self):
        # Every non-fleet harness: neither report has the object.
        base = make_report([make_run()])
        cur = make_report([make_run()],
                          throughput=make_throughput())
        self.assertEqual(
            bench_gate.compare_throughput_counters(cur, base), [])

    def test_identical_counters_pass(self):
        report = make_report([], throughput=make_throughput())
        self.assertEqual(
            bench_gate.compare_throughput_counters(report, report), [])

    def test_ops_replayed_drift_fails(self):
        base = make_report([], throughput=make_throughput(ops=20000))
        cur = make_report([], throughput=make_throughput(ops=19999))
        failures = bench_gate.compare_throughput_counters(cur, base)
        self.assertEqual(len(failures), 1)
        self.assertIn("throughput.opsReplayed", failures[0])
        self.assertIn("20000", failures[0])
        self.assertIn("19999", failures[0])

    def test_shard_drift_fails(self):
        base = make_report([], throughput=make_throughput(shards=4))
        cur = make_report([], throughput=make_throughput(shards=2))
        failures = bench_gate.compare_throughput_counters(cur, base)
        self.assertEqual(len(failures), 1)
        self.assertIn("throughput.shards", failures[0])

    def test_missing_object_fails(self):
        base = make_report([], throughput=make_throughput())
        cur = make_report([])
        failures = bench_gate.compare_throughput_counters(cur, base)
        self.assertEqual(len(failures), 1)
        self.assertIn("throughput object missing", failures[0])

    def test_rate_not_compared_exactly(self):
        # opsPerSec is wall-clock-derived; only the floor gate below
        # looks at it, never the exact comparison.
        base = make_report([],
                           throughput=make_throughput(rate=100.0))
        cur = make_report([],
                          throughput=make_throughput(rate=57.0))
        self.assertEqual(
            bench_gate.compare_throughput_counters(cur, base), [])


class CompareThroughputRateTest(unittest.TestCase):
    def compare(self, cur_rate, base_rate, tolerance):
        with contextlib.redirect_stdout(io.StringIO()):
            return bench_gate.compare_throughput_rate(
                make_report([], throughput=make_throughput(
                    rate=cur_rate)),
                make_report([], throughput=make_throughput(
                    rate=base_rate)), tolerance)

    def test_faster_passes(self):
        # Drift upward (a speedup) is never a regression.
        self.assertEqual(self.compare(250.0, 100.0, 0.30), [])

    def test_exactly_at_floor_passes(self):
        # "May fall short by at most tolerance": 75 at -25% of 100 is
        # the inclusive edge (values chosen exact in binary).
        self.assertEqual(self.compare(75.0, 100.0, 0.25), [])

    def test_below_floor_fails(self):
        failures = self.compare(74.0, 100.0, 0.25)
        self.assertEqual(len(failures), 1)
        self.assertIn("throughput regressed", failures[0])
        self.assertIn("-26.0%", failures[0])

    def test_missing_current_rate_fails(self):
        failures = bench_gate.compare_throughput_rate(
            make_report([], throughput=make_throughput()),
            make_report([], throughput=make_throughput(rate=100.0)),
            0.30)
        self.assertEqual(len(failures), 1)
        self.assertIn("opsPerSec missing", failures[0])

    def test_no_baseline_rate_skipped(self):
        self.assertEqual(bench_gate.compare_throughput_rate(
            make_report([]), make_report([]), 0.30), [])


class MainTest(unittest.TestCase):
    """End-to-end through main(), with real files."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, report):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(report, f)
        return path

    def run_main(self, *argv):
        with mock.patch("sys.argv", ["bench_gate.py", *argv]), \
             contextlib.redirect_stdout(io.StringIO()) as out:
            code = bench_gate.main()
        return code, out.getvalue()

    def test_pass(self):
        report = make_report([make_run()], timing_ms=10.0)
        cur = self.write("cur.json", report)
        base = self.write("base.json", report)
        code, out = self.run_main(cur, base)
        self.assertEqual(code, 0)
        self.assertIn("PASS", out)

    def test_counter_regression_exits_1(self):
        cur = self.write(
            "cur.json", make_report([make_run(cycles=2)]))
        base = self.write(
            "base.json", make_report([make_run(cycles=1)]))
        code, out = self.run_main(cur, base, "--no-time")
        self.assertEqual(code, 1)
        self.assertIn("FAIL", out)

    def test_time_only_skips_counters(self):
        cur = self.write(
            "cur.json", make_report([make_run(cycles=2)],
                                    timing_ms=10.0))
        base = self.write(
            "base.json", make_report([make_run(cycles=1)],
                                     timing_ms=10.0))
        code, out = self.run_main(cur, base, "--time-only")
        self.assertEqual(code, 0)
        self.assertIn("wall clock within threshold", out)

    def test_missing_baseline_exits_via_system_exit(self):
        cur = self.write("cur.json", make_report([make_run()]))
        missing = os.path.join(self.dir.name, "nope.json")
        with self.assertRaises(SystemExit) as ctx:
            self.run_main(cur, missing, "--no-time")
        self.assertIn("cannot read", str(ctx.exception))

    def test_bad_schema_exits_via_system_exit(self):
        cur = self.write("cur.json", {"schema": "other/v1", "runs": []})
        base = self.write("base.json", make_report([]))
        with self.assertRaises(SystemExit) as ctx:
            self.run_main(cur, base, "--no-time")
        self.assertIn("unexpected schema", str(ctx.exception))

    def test_corrupt_json_exits_via_system_exit(self):
        path = os.path.join(self.dir.name, "corrupt.json")
        with open(path, "w") as f:
            f.write("{not json")
        base = self.write("base.json", make_report([]))
        with self.assertRaises(SystemExit):
            self.run_main(path, base, "--no-time")

    def test_throughput_floor_through_main(self):
        cur = self.write("cur.json", make_report(
            [make_run()], timing_ms=10.0,
            throughput=make_throughput(rate=50.0)))
        base = self.write("base.json", make_report(
            [make_run()], timing_ms=10.0,
            throughput=make_throughput(rate=100.0)))
        code, out = self.run_main(cur, base)
        self.assertEqual(code, 1)
        self.assertIn("throughput regressed", out)
        # A looser explicit floor lets the same pair pass.
        code, _ = self.run_main(cur, base, "--ops-threshold", "0.5")
        self.assertEqual(code, 0)

    def test_no_time_skips_throughput_rate(self):
        # ctest's BenchGate.cmake path: counters exact, rate ignored.
        cur = self.write("cur.json", make_report(
            [make_run()], throughput=make_throughput(rate=1.0)))
        base = self.write("base.json", make_report(
            [make_run()], timing_ms=10.0,
            throughput=make_throughput(rate=100.0)))
        code, out = self.run_main(cur, base, "--no-time")
        self.assertEqual(code, 0)
        self.assertIn("PASS", out)

    def test_update_rewrites_baseline(self):
        report = make_report([make_run(cycles=42)])
        cur = self.write("cur.json", report)
        base = self.write("base.json", make_report([make_run()]))
        code, out = self.run_main(cur, base, "--update")
        self.assertEqual(code, 0)
        self.assertIn("updated", out)
        with open(cur, "rb") as f_cur, open(base, "rb") as f_base:
            self.assertEqual(f_cur.read(), f_base.read())


if __name__ == "__main__":
    unittest.main()
