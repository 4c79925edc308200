"""Self-test of the benchmark: a smoke-sized run of every workload, untraced
and traced, on two seeds, must pass its output check and emit exactly the
metrics `BENCHMARK.json` declares, each with its declared unit.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(workload, seed, trace):
    result = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if result.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} failed:\n{result.stderr}")
    return json.loads(result.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, trace, declared):
        expected = {m["name"]: m["unit"] for m in declared}
        for workload in (w["name"] for w in self.spec["workloads"]):
            for seed in (1, 2):
                with self.subTest(workload=workload, seed=seed, trace=trace):
                    summary = run(workload, seed, trace)
                    self.assertEqual(set(summary), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(summary["correct"])
                    self.assertEqual(summary["failed"], 0)
                    self.assertGreaterEqual(summary["attempted"], 1)
                    got = {name: m["unit"] for name, m in summary["metrics"].items()}
                    self.assertEqual(got, expected)
                    if trace == 0:
                        for name, m in summary["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_end_to_end_metrics(self):
        self.check(0, self.spec["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, self.spec["per_layer"])


if __name__ == "__main__":
    unittest.main()
