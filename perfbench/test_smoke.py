"""Smoke test of the benchmark itself, at tiny sizes (3 reps, 5 draws, 2 cells).

    python3 perfbench/test_smoke.py        # or: python3 -m pytest perfbench

Checks that every metric name and unit the benchmark prints is the one
BENCHMARK.json declares, in both modes; that the traced run replays every
workload and compares it with the public call; that the comparison catches
a difference in the last bit; and that a directory holding only
BENCHMARK.json and perfbench/ makes the benchmark exit non-zero without
printing a result. Takes about half a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in BENCH["workloads"]]
ALL = ["study", "random_weights", "ties_bootstrap", "efficiency"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class BenchmarkSmokeTest(unittest.TestCase):
    def result(self, proc: subprocess.CompletedProcess) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        return out

    def assert_metrics(self, metrics: dict, declared: list) -> None:
        self.assertEqual(
            {k: m["unit"] for k, m in metrics.items()},
            {m["name"]: m["unit"] for m in declared},
        )
        for m in metrics.values():
            self.assertIsInstance(m["value"], float)

    def test_end_to_end_metrics_match_benchmark_json(self):
        for name in ALL:
            with self.subTest(workload=name):
                out = self.result(
                    bench("--workload", name, "--seed", "7", "--seconds", "0",
                          "--trace", "0", "--tiny")
                )
                self.assert_metrics(out["metrics"], BENCH["end_to_end"])

    def test_traced_run_replays_every_workload(self):
        proc = bench("--workload", GATED[0], "--seed", "7", "--trace", "1", "--tiny")
        out = self.result(proc)
        self.assert_metrics(out["metrics"], BENCH["per_layer"])
        for name in ALL:
            self.assertIn(f"# {name}: replay reproduced the call", proc.stdout)

    def test_replay_check_catches_a_one_ulp_difference(self):
        sys.path.insert(0, str(HERE))
        import numpy as np
        import workloads
        from tracing import Tracer

        wl = workloads.WORKLOADS["efficiency"]
        grid = workloads.TINY.grid
        result = wl.call(grid)
        again, _ = wl.replay(grid, Tracer())
        self.assertEqual(workloads.replay_mismatches(wl, result, again)[1], [])
        bumped = float(np.nextafter(again[0].ratio, 2.0))
        again[0] = dataclasses.replace(again[0], ratio=bumped)
        self.assertNotEqual(workloads.replay_mismatches(wl, result, again)[1], [])

    def test_checkout_without_source_exits_nonzero(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", GATED[0], "--seed", "7", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
