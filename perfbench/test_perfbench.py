"""Tests of the benchmark itself, on tiny corpora:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

- every workload prints exactly the metric names BENCHMARK.json lists, with
  their units, untraced and traced;
- every count metric of the traced run repeats exactly across two
  invocations with the same seed, and between NVD_JOBS=1 and 2;
- a workload whose program fails on every operation still reports a result
  line, with `correct` false and the failures counted.
"""

import argparse
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = "0.005"

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def run(workload, trace, seed=3, jobs=None):
    env = dict(os.environ)
    if jobs is not None:
        env["NVD_JOBS"] = str(jobs)
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", TINY],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_printed_metrics_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in (w["name"] for w in self.spec["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    stamp, result = run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], stamp["checks"])
                    self.assertEqual(result["failed"], 0)
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    self.assertEqual(set(stamp["samples"]), set(expected))

    def test_counts_repeat_across_invocations_and_job_counts(self):
        counts = [m["name"] for m in self.spec["per_layer"] if m["unit"] in ("count", "ratio")]
        self.assertIn("names.vendor_candidates", counts)

        def count_values(jobs):
            _, result = run("serve_mixed", 1, jobs=jobs)
            self.assertTrue(result["correct"])
            return {name: result["metrics"][name]["value"] for name in counts}

        first = count_values(2)
        self.assertEqual(count_values(2), first)
        self.assertEqual(count_values(1), first)

    def test_failing_program_still_reports_its_failures(self):
        # `false` stands in for both paper-repro and the harness: every
        # operation exits non-zero and nothing is measured.
        env = dict(os.environ, NVD_JOBS="1")
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                args = argparse.Namespace(workload=workload, scale=float(TINY), seed=3,
                                          seconds=0.2, trace=0)
                result, stamp = bench.measure(args, self.spec, ("false", "false"), env)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLessEqual(result["failed"], result["attempted"])
                self.assertTrue(stamp["missing"])
                self.assertEqual(stamp["failed_ratio"], result["failed"] / result["attempted"])


if __name__ == "__main__":
    unittest.main()
