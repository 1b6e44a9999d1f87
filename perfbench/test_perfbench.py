#!/usr/bin/env python3
"""The benchmark's own tests (stdlib unittest).

    python3 perfbench/test_perfbench.py

Runs every workload in smoke mode (tiny inputs, short phases, output
checks on), untraced and traced, and requires a correct result carrying
exactly BENCHMARK.json's metrics; also checks compare.py's verdicts on
synthetic results.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run_smoke(workload, trace, results_dir):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--smoke",
         "--results-dir", results_dir],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=600)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_workload(self):
        with tempfile.TemporaryDirectory() as results:
            for w in BENCH["workloads"]:
                for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                    with self.subTest(workload=w["name"], trace=trace):
                        r = run_smoke(w["name"], trace, results)
                        self.assertTrue(r["correct"])
                        self.assertGreater(r["attempted"], 0)
                        self.assertEqual(r["failed"], 0)
                        want = {m["name"]: m["unit"] for m in BENCH[key]}
                        got = {k: v["unit"] for k, v in r["metrics"].items()}
                        self.assertEqual(got, want)
                        if trace == 0:
                            for k, v in r["metrics"].items():
                                self.assertGreater(v["value"], 0, k)


class CompareTest(unittest.TestCase):
    QPS = {"name": "read_qps", "better": "higher", "bound": 0.1}
    P50 = {"name": "read_p50_ms", "better": "lower", "bound": 0.1}

    def test_steady_gain_is_improved(self):
        base = {s: 100.0 + s % 3 for s in range(10)}
        change = {s: 130.0 + s % 3 for s in range(10)}
        self.assertEqual(compare.verdict(self.QPS, base, change)[0],
                         "improved")

    def test_small_loss_is_no_worse(self):
        base = {s: 10.0 + 0.1 * (s % 3) for s in range(10)}
        change = {s: 10.5 + 0.1 * (s % 3) for s in range(10)}
        self.assertEqual(compare.verdict(self.P50, base, change)[0],
                         "no worse")

    def test_loss_beyond_bound_is_worse(self):
        base = {s: 10.0 + 0.1 * (s % 3) for s in range(10)}
        change = {s: 12.0 + 0.1 * (s % 3) for s in range(10)}
        self.assertEqual(compare.verdict(self.P50, base, change)[0], "worse")

    def test_wide_base_spread_is_unresolved(self):
        base = {s: 10.0 * (1 + s % 4) for s in range(10)}
        change = {s: 11.0 * (1 + s % 4) for s in range(10)}
        self.assertEqual(compare.verdict(self.P50, base, change)[0],
                         "unresolved")


if __name__ == "__main__":
    unittest.main()
