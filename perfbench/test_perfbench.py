#!/usr/bin/env python3
"""Quick-mode self-check of the benchmark.

    python3 perfbench/test_perfbench.py

Builds the benchmark if needed, then runs every workload in quick mode
(5,000 files, one set-up, a one-second window). Checks that each run passed
its own correctness checks, that every metric BENCHMARK.json names is
printed, finite and carries its declared unit, and that another seed
changes the operation stream but not the set of metric names.
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# Every workload run.py accepts, including any BENCHMARK.json does not gate.
WORKLOADS = ["stat_hot", "stat_cold", "namespace_churn"]


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def run_quick(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d trace %d exited %d:\n%s" %
                             (workload, seed, trace, proc.returncode,
                              proc.stderr[-2000:]))
    lines = proc.stdout.strip().split("\n")
    digest = [l.split(":", 1)[1].strip() for l in lines
              if l.startswith("op_stream_digest:")]
    return json.loads(lines[-1]), digest[0] if digest else None


class QuickSelfCheck(unittest.TestCase):

    def check(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], declared[name], name)
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_gated_workloads_are_runnable(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]},
                             set(WORKLOADS))

    def test_end_to_end_metrics_and_seeds(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, digest1 = run_quick(workload, 1, 0)
                second, digest2 = run_quick(workload, 2, 0)
                self.check(first, units("end_to_end"))
                self.check(second, units("end_to_end"))
                self.assertIsNotNone(digest1)
                self.assertNotEqual(digest1, digest2)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = run_quick(workload, 1, 1)
                self.check(result, units("per_layer"))


if __name__ == "__main__":
    unittest.main()
