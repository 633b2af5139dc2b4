#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny scale (about a minute).

    python3 perfbench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, traced and untraced; that the exact counters repeat bit for
bit across two runs of one seed; that a second seed runs green; and that
the benchmark fails without a result when the library sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bulkload", "query-warm", "mixed"]
TINY = ["--seconds", "1", "--scale", "0.02"]

# Counters that depend only on the seed: the build and probe I/O of
# bulkload, end to end and per layer.
EXACT_E2E = ["build_io_blocks", "leaf_ios_per_query", "device_pages"]
EXACT_LAYER = ["io.device.reads", "io.device.writes",
               "io.device.write_batches", "io.device.blocks_per_write_batch"]


def run(workload, seed, trace, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
        + TINY, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(workload, seed, trace):
    code, lines = run(workload, seed, trace)
    if code != 0:
        raise AssertionError("%s exited with %d" % (workload, code))
    return json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def assert_green(self, res):
        self.assertEqual(sorted(res), ["attempted", "correct", "failed",
                                       "metrics"])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)

    def test_every_metric_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    res = result(workload, 1, trace)
                    self.assert_green(res)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in res["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    if trace == 0:
                        for name, m in res["metrics"].items():
                            self.assertNotEqual(m["value"], 0, name)

    def test_exact_counters_repeat(self):
        for trace, names in ((0, EXACT_E2E), (1, EXACT_LAYER)):
            a = result("bulkload", 7, trace)["metrics"]
            b = result("bulkload", 7, trace)["metrics"]
            for name in names:
                self.assertEqual(a[name]["value"], b[name]["value"], name)

    def test_second_seed_runs_green(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_green(result(workload, 2, 0))

    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run("bulkload", 1, 0, root=tmp)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith('{"correct"') for l in lines))


if __name__ == "__main__":
    unittest.main()
