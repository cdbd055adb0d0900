#!/usr/bin/env python3
"""Gate-integrity tests for tools/bench_compare.py (the CI docs-check job;
needs no build).

Every committed baseline in bench/baselines/ must pass against itself,
and edited copies that a sound gate rejects must fail: a run that
declares a looser floor or ceiling of its own, a baseline that lacks a
bound, counter drift past the tolerance, and a changed verdict.

Run from anywhere: python3 tools/test_bench_compare.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_compare.py")
BASELINES = os.path.join(ROOT, "bench", "baselines")


def load_baseline(name):
    with open(os.path.join(BASELINES, name)) as f:
        return json.load(f)


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, data):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(data, f)
        return path

    def compare(self, current, baseline):
        """bench_compare.py's exit code for two JSON objects."""
        proc = subprocess.run(
            [sys.executable, TOOL, self.write("current.json", current),
             "--baseline", self.write("baseline.json", baseline)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return proc.returncode, proc.stdout

    def assert_rejected(self, current, baseline, reason):
        rc, out = self.compare(current, baseline)
        self.assertNotEqual(rc, 0, f"{reason} passed the gate:\n{out}")
        self.assertIn("FAIL", out)

    def test_each_committed_baseline_passes_against_itself(self):
        names = sorted(n for n in os.listdir(BASELINES) if n.endswith(".json"))
        self.assertEqual(len(names), 5, names)
        for name in names:
            with self.subTest(baseline=name):
                base = load_baseline(name)
                rc, out = self.compare(base, base)
                self.assertEqual(rc, 0, out)

    def test_delta_wall_fraction_ceiling_comes_from_the_baseline(self):
        base = load_baseline("BENCH_delta.json")
        cur = copy.deepcopy(base)
        cur["headline"]["wall_fraction"] = 0.60
        cur["headline"]["max_wall_fraction"] = 0.90
        self.assert_rejected(cur, base, "wall fraction 0.60 (ceiling 0.25)")

    def test_delta_reuse_floor_comes_from_the_baseline(self):
        base = load_baseline("BENCH_delta.json")
        cur = copy.deepcopy(base)
        cur["headline"]["reuse_fraction"] = 0.5
        cur["headline"]["min_reuse_fraction"] = 0.4
        self.assert_rejected(cur, base, "reuse fraction 0.5 (floor 1.0)")

    def test_resume_overhead_ceiling_comes_from_the_baseline(self):
        base = load_baseline("BENCH_resume.json")
        cur = copy.deepcopy(base)
        cur["headline"]["checkpoint_overhead_fraction"] = 0.80
        cur["headline"]["max_checkpoint_overhead_fraction"] = 0.95
        self.assert_rejected(cur, base, "checkpoint overhead 80% (ceiling 50%)")

    def test_baseline_without_a_bound_fails(self):
        base = load_baseline("BENCH_delta.json")
        del base["headline"]["max_wall_fraction"]
        self.assert_rejected(base, base, "a baseline without max_wall_fraction")

    def test_simplex_pivot_drift_fails(self):
        base = load_baseline("BENCH_simplex.json")
        cur = copy.deepcopy(base)
        cur["configs"][0]["pivots"] = round(cur["configs"][0]["pivots"] * 1.25)
        self.assert_rejected(cur, base, "a 25% pivot drift")

    def test_simplex_factor_restore_drift_fails(self):
        base = load_baseline("BENCH_simplex.json")
        cur = copy.deepcopy(base)
        restores = cur["configs"][0]["factor_restores"]
        self.assertGreater(restores, 0)
        cur["configs"][0]["factor_restores"] = round(restores * 1.25)
        self.assert_rejected(cur, base, "a 25% factor_restores drift")

    def test_simplex_changed_verdict_fails(self):
        base = load_baseline("BENCH_simplex.json")
        cur = copy.deepcopy(base)
        verdicts = cur["configs"][0]["verdicts"].split(",")
        verdicts[0] = "UNSAFE" if verdicts[0] == "SAFE" else "SAFE"
        cur["configs"][0]["verdicts"] = ",".join(verdicts)
        self.assert_rejected(cur, base, "a changed verdict")


if __name__ == "__main__":
    unittest.main()
