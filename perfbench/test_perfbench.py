#!/usr/bin/env python3
"""The benchmark's own tests, at reduced size.

Run from the root of a proteus checkout:

    python3 perfbench/test_perfbench.py

- The determinism guard: two seek_cold runs with one seed must repeat
  every count of the read tree exactly (filter checks, SST probes, FP
  files, blocks touched, SST bytes, filter bits). Time-triggered
  maintenance in the read trees' load breaks this.
- Every workload prints exactly the metrics BENCHMARK.json names, with
  their units, answers everything correctly, and passes the traced run's
  own sanity checks.
- Outside a proteus checkout the benchmark fails without a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
SMALL = ["--seconds", "1", "--keys", "30000"]


def run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
        + SMALL, cwd=cwd, capture_output=True, text=True, timeout=600)


def counts(stdout):
    return re.findall(r"^setup \d+: .*counts: (.*)$", stdout, re.MULTILINE)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_seek_cold_counts_repeat_exactly(self):
        first, second = run("seek_cold", 7, 0), run("seek_cold", 7, 0)
        self.assertEqual(first.returncode, 0, first.stderr)
        self.assertEqual(second.returncode, 0, second.stderr)
        a, b = counts(first.stdout), counts(second.stdout)
        self.assertTrue(a)
        self.assertEqual(len(set(a + b)), 1, a + b)
        for key in ("filter_checks", "sst_seeks", "fp_files", "blocks",
                    "sst_bytes", "filter_bits"):
            self.assertIn(key + "=", a[0])

    def test_metrics_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[section]}
            for w in self.spec["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run(w["name"], 3, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().split("\n")[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_fails_outside_a_checkout(self):
        build_dir = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_dir, exist_ok=True)
        bare = tempfile.mkdtemp(dir=build_dir)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"))
            proc = run("seek_cold", 1, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
