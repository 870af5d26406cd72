#!/usr/bin/env python3
"""Pins the benchmark's deterministic counts (perfbench/README.md).

On grid-sssp, engine.iterations and engine.updates must repeat exactly across
runs. On spec-coloring, spec.rounds, spec.commits and spec.aborts must repeat
exactly across runs and at 1 and 2 engine threads. The measuring program also
fails a run whose solves disagree on these counts; this test checks them
between runs.

    python3 perfbench/test_counts.py
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def run_metrics(binary, workload, threads=2, trace=1):
    """One short run; returns its metrics as {name: (value, unit)}."""
    workdir = os.path.relpath(os.path.join(run.build_dir(), "run"), run.ROOT)
    os.makedirs(workdir, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--threads", str(threads), "--workdir", workdir],
        capture_output=True, text=True, cwd=run.ROOT, timeout=run.RUN_TIMEOUT_S)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise AssertionError("%s failed: %s" % (workload, proc.stderr))
    return {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}


def traced_counts(binary, workload, threads):
    return {k: v[0] for k, v in run_metrics(binary, workload, threads).items()}


class DeterministicCounts(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(run.ROOT)
        cls.binary = run.build()

    def test_grid_sssp_counts_repeat(self):
        keys = ("engine.iterations", "engine.updates")
        runs = [traced_counts(self.binary, "grid-sssp", 2) for _ in range(2)]
        for key in keys:
            self.assertGreater(runs[0][key], 0, key)
            self.assertEqual(runs[0][key], runs[1][key], key)

    def test_spec_coloring_counts_repeat_across_runs_and_threads(self):
        keys = ("spec.rounds", "spec.commits", "spec.aborts")
        runs = [traced_counts(self.binary, "spec-coloring", t) for t in (2, 2, 1)]
        for key in keys:
            self.assertGreater(runs[0][key], 0, key)
            self.assertEqual(runs[0][key], runs[1][key], key + " across runs")
            self.assertEqual(runs[0][key], runs[2][key], key + " at 1 vs 2 threads")


class ResultLine(unittest.TestCase):
    """Every run reports exactly the metrics BENCHMARK.json declares for its
    mode, in their units; end-to-end metrics are never 0."""

    def test_metrics_match_the_manifest(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            manifest = json.load(f)
        binary = run.build()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in manifest[key]}
            for workload in ("grid-sssp", "tier-sssp"):
                got = run_metrics(binary, workload, trace=trace)
                self.assertEqual(set(got), set(declared), (workload, trace))
                for name, (value, unit) in got.items():
                    self.assertEqual(unit, declared[name], (workload, name))
                    if trace == 0:
                        self.assertGreater(value, 0, (workload, name))

if __name__ == "__main__":
    unittest.main()
