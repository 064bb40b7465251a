#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py

The smoke tests run every workload for one second, untraced and traced
(about two minutes; the first run also builds the benchmark tree).
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(100, 0, -1))  # order must not matter
        self.assertEqual(run.percentile(samples, 50), 50)
        self.assertEqual(run.percentile(samples, 90), 90)
        self.assertEqual(run.percentile([5.0] * 19 + [1.0], 50), 5.0)

    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(list(range(19)), 50))
        self.assertEqual(run.percentile(list(range(1, 21)), 50), 10)
        self.assertIsNone(run.percentile(list(range(999)), 99))
        self.assertEqual(run.percentile(list(range(1, 1001)), 99), 990)
        self.assertIsNone(run.percentile([], 50))

    def test_rejects_bad_p(self):
        for p in (0, 100, 50.5):
            with self.assertRaises(ValueError):
                run.percentile([1.0] * 100, p)


class RatiosTest(unittest.TestCase):
    def test_sweep_ratios(self):
        layers = {"simulate_s": 1.2, "simulate_max_s": 0.2, "replay_s": 0.1,
                  "fit_s": 0.05}
        r = run.sweep_ratios(sweep_s=0.6, serial_s=1.5, procs=4,
                             layers=layers, cpu_s=1.2)
        self.assertAlmostEqual(r["analysis.bound_s"], 0.3)  # 1.2 / 4
        self.assertAlmostEqual(r["analysis.sched_efficiency"], 0.5)
        self.assertAlmostEqual(r["analysis.cpu_util"], 0.5)
        self.assertAlmostEqual(r["analysis.coverage"], 0.9)
        self.assertAlmostEqual(r["analysis.unattributed_s"], 0.15)
        # The longest simulation floors the bound.
        layers["simulate_max_s"] = 0.5
        r = run.sweep_ratios(0.6, 1.5, 4, layers, 1.2)
        self.assertAlmostEqual(r["analysis.bound_s"], 0.5)

    def test_serve_ratios(self):
        cold = {"wall_s": 10.0, "queries": 500}     # 20 ms a query
        serial = {"wall_s": 4.0, "queries": 100}    # 40 ms a query
        probe = {"compute_ms_mean": 2.0, "broker_cold_ms": 10.0}
        r = run.serve_ratios(cold, serial, 4, probe, cpu_s=20.0)
        self.assertAlmostEqual(r["par_ms"], 20.0)
        self.assertAlmostEqual(r["ser_ms"], 40.0)
        self.assertAlmostEqual(r["analysis.bound_s"], 0.0005)
        self.assertAlmostEqual(r["analysis.sched_efficiency"], 0.025)
        self.assertAlmostEqual(r["analysis.cpu_util"], 0.5)
        self.assertAlmostEqual(r["analysis.coverage"], 0.25)

    def test_karp_flatt_through_core(self):
        if not os.path.isfile(os.path.join(run.ROOT, run.BINARIES[
                "perfbench_harness"])):
            self.skipTest("benchmark tree not built")
        out = os.path.join(run.ROOT, run.OUT, "test-scaling.json")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        subprocess.run([os.path.join(run.ROOT, run.BINARIES[
            "perfbench_harness"]), "scaling", "--serial", "2", "--parallel",
            "1", "--procs", "4", "--out", out], check=True)
        with open(out) as f:
            s = json.load(f)
        os.remove(out)
        self.assertAlmostEqual(s["speedup"], 2.0)
        self.assertAlmostEqual(s["efficiency"], 0.5)
        self.assertAlmostEqual(s["karp_flatt"], 1.0 / 3.0)  # (1/2-1/4)/(3/4)


class NamesTest(unittest.TestCase):
    def bench(self, name):
        return {"workloads": [{"name": "w"}],
                "end_to_end": [{"name": name, "unit": "s", "better": "lower"}],
                "per_layer": []}

    def test_benchmark_json_is_valid(self):
        with open(BENCHMARK) as f:
            run.check_names(json.load(f))

    def test_accepts_layer_names(self):
        for name in ("setup_s", "mpi.rank_cpu_s", "serve.cold.useful_ratio",
                     "a-b", "9x", "x" * 64):
            run.check_names(self.bench(name))

    def test_rejects_bad_names(self):
        for name in ("", "a b", "-a", ".a", "a/b", "café", "x" * 65):
            with self.assertRaises(run.BenchError, msg=name):
                run.check_names(self.bench(name))

    def test_rejects_repeats(self):
        bench = self.bench("a")
        bench["per_layer"] = [{"name": "a", "unit": "s", "better": "lower"}]
        with self.assertRaises(run.BenchError):
            run.check_names(bench)


class FaultsTableTest(unittest.TestCase):
    def test_keeps_title_and_table_only(self):
        text = ("Resilience sweep: x (seed 1)\n+--+\n| a |\n+--+\n"
                "clean sweep = ...\nsweep points: repriced 60\n")
        self.assertEqual(run.faults_table(text),
                         "Resilience sweep: x (seed 1)\n+--+\n| a |\n+--+\n")


class SmokeTest(unittest.TestCase):
    """Each workload for one second emits exactly BENCHMARK.json's
    metrics and passes its correctness check."""

    def smoke(self, workload, trace):
        with open(BENCHMARK) as f:
            bench = json.load(f)
        group = bench["per_layer" if trace else "end_to_end"]
        out = subprocess.run(
            [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], out.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in group})
        for m in group:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))

    def test_report(self):
        self.smoke("report", 0)
        self.smoke("report", 1)

    def test_faults(self):
        self.smoke("faults", 0)
        self.smoke("faults", 1)

    def test_serve(self):
        self.smoke("serve", 0)
        self.smoke("serve", 1)


if __name__ == "__main__":
    unittest.main()
