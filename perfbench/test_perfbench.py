#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from anywhere:

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does), then checks that inputs are a pure
function of the seed, that printed metric names and units match
BENCHMARK.json, that a one-second smoke run of every workload passes, and
that no generated request fails.
"""

import json
import os
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's entry point)

BUILD = run.build()
BINARY = os.path.join(BUILD, "perfbench")
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def dump(workload, seed, n=40):
    return subprocess.run([BINARY, "--dump", workload, str(seed), str(n)],
                          check=True, stdout=subprocess.PIPE).stdout


def bench(workload, trace, seconds=1, seed=3):
    """Runs run.py; returns (exit code, parsed last line, wall seconds)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(run.SOURCE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=False)
    last = proc.stdout.strip().splitlines()[-1]
    return proc.returncode, json.loads(last), time.monotonic() - t0


class Determinism(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for w in run.WORKLOADS:
            self.assertEqual(dump(w, 5), dump(w, 5), w)

    def test_different_seeds_different_specs(self):
        for w in run.WORKLOADS:
            self.assertNotEqual(dump(w, 5), dump(w, 6), w)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(run.WORKLOADS))


class Smoke(unittest.TestCase):
    def check(self, trace, section):
        want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        for w in run.WORKLOADS:
            code, result, wall = bench(w, trace)
            self.assertEqual(code, 0, w)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], w)
            self.assertEqual(result["failed"], 0, w)
            self.assertGreaterEqual(result["attempted"], 1, w)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want, w)
            self.assertLess(wall, 60, w)
            if section == "end_to_end":
                for name, v in result["metrics"].items():
                    self.assertGreater(v["value"], 0, (w, name))

    def test_end_to_end_names_and_units(self):
        self.check(0, "end_to_end")

    def test_per_layer_names_and_units(self):
        self.check(1, "per_layer")


class Workloads(unittest.TestCase):
    def test_no_generated_request_fails(self):
        proc = subprocess.run([BINARY, "--validate", "1", "8"],
                              stdout=subprocess.PIPE, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])


if __name__ == "__main__":
    unittest.main()
