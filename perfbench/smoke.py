"""Smoke test of the benchmark itself, at one-second runs.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
printed with its unit for all four workloads, and that a wrong pinned digest
or a wrong pinned alpha is reported as a failed item with a non-zero exit,
not as a pass. Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("exact-sweep", "stochastic-mc", "long-horizon", "cover-certify")


def bench(*args: str) -> tuple[int, str, dict]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--seconds", "1",
                           *args], capture_output=True, text=True, timeout=600)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, proc.stdout, last


def altered_pins(change) -> str:
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
        pins = json.load(handle)
    change(pins)
    os.makedirs(".perfbench", exist_ok=True)
    path = os.path.join(".perfbench", "smoke-pins.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pins, handle)
    return path


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json", encoding="utf-8") as handle:
            cls.spec = json.load(handle)

    def assert_metrics(self, result: dict, key: str):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        for workload in WORKLOADS:
            for metric in self.spec[key]:
                entry = result["metrics"][f"{workload}/{metric['name']}"]
                self.assertEqual(entry["unit"], metric["unit"])
                self.assertIsInstance(entry["value"], (int, float))

    def test_end_to_end_metrics_with_units(self):
        code, out, result = bench("--workload", "all", "--seed", "5", "--trace", "0")
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assert_metrics(result, "end_to_end")
        for workload in WORKLOADS:
            self.assertIn(f"== {workload}:", out)
        self.assertIn("failed_frac", out)
        self.assertIn("no CPU pinning or frequency control", out)

    def test_per_layer_metrics_with_units(self):
        code, out, result = bench("--workload", "all", "--seed", "6", "--trace", "1")
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"])
        self.assert_metrics(result, "per_layer")
        self.assertIn("computed", out)
        for workload in WORKLOADS:
            self.assertTrue(os.path.isfile(
                os.path.join(".perfbench", f"spans-{workload}-seed6.tsv")))

    def test_wrong_digest_fails(self):
        def change(pins):
            pins["digests"]["stochastic-mc"]["cycle0"] = "0" * 64
        code, out, result = bench("--workload", "stochastic-mc", "--seed", "7",
                                  "--trace", "0", "--pins", altered_pins(change))
        self.assertEqual(code, 1, out)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("FAILED pin cycle0", out)

    def test_wrong_alpha_fails(self):
        def change(pins):
            pins["alpha"]["lp 2"] = "5/2"
        code, out, result = bench("--workload", "cover-certify", "--seed", "8",
                                  "--trace", "0", "--pins", altered_pins(change))
        self.assertEqual(code, 1, out)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("lp 2: alpha 9/4 != 5/2", out)


if __name__ == "__main__":
    unittest.main()
