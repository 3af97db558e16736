#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny size (about a minute in total).

    python3 avmbench/test_bench.py

- Smoke: every workload, end-to-end and traced, prints each metric named in
  BENCHMARK.json exactly once with its unit, and op_fail_frac is 0.
- Exact-count determinism: the `counts` line (entries, log bytes, disk
  bytes, signatures, instructions replayed, network frames and bytes)
  repeats exactly for one seed and changes for another.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s seed %d trace %d exited %d:\n%s\n%s" % (
            workload, seed, trace, proc.returncode, proc.stdout[-2000:], proc.stderr[-2000:]))
    return lines


def counts(lines):
    found = [l for l in lines if l.startswith("counts ")]
    assert len(found) == 1, found
    return json.loads(found[0][len("counts "):])


class SmokeTest(unittest.TestCase):
    def check(self, trace, declared):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=trace):
                lines = run(w, 1, trace)
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
                printed = [l.split() for l in lines if l.startswith("metric ")]
                for m in declared:
                    rows = [p for p in printed if p[1] == m["name"]]
                    self.assertEqual(len(rows), 1, m["name"])
                    self.assertEqual(rows[0][3], m["unit"], m["name"])
                    self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                frac = [p for p in printed if p[1] == "op_fail_frac"]
                self.assertEqual(len(frac), 1)
                self.assertEqual(float(frac[0][2]), 0.0)
                controls = [l for l in lines if l.startswith("control ")]
                self.assertEqual(len(controls), 1)
                self.assertIn("FAIL", controls[0])

    def test_end_to_end(self):
        self.check(0, SPEC["end_to_end"])

    def test_traced(self):
        self.check(1, SPEC["per_layer"])


class DeterminismTest(unittest.TestCase):
    def test_exact_counts(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = counts(run(w, 1, 0))
                b = counts(run(w, 1, 0))
                c = counts(run(w, 2, 0))
                self.assertEqual(a, b)
                # Message counts and instructions replayed are fixed by the
                # scenario's structure and length; the content (and so the
                # compressed disk bytes) follows the seed.
                self.assertNotEqual(a, c)
                self.assertNotEqual(a["disk_bytes"], c["disk_bytes"])


if __name__ == "__main__":
    unittest.main()
