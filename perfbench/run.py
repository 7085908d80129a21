"""margfit benchmark: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py --workload study --seed 20260819 --seconds 60 --trace 0

With ``--trace 0`` it starts three fresh processes of perfbench/workloads.py
one after another. Each sets up the workload and then makes its one public
call back to back for a third of ``--seconds`` (at least once). It reports
the median setup_s and peak_rss_mb over the processes and the median wall_s
over all calls. ``--workload all`` does that for
every workload in turn. With ``--trace 1`` it starts one process that calls
and then replays every workload under spans, and reports the per-layer
metrics; ``--workload`` and ``--seconds`` do not change that run.

The lines before the last are for people; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Exits 1 when an output fails the correctness gate and 2 when the checkout
holds no margfit source. Uses only the standard library; the processes it
starts import margfit from ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study", "random_weights", "ties_bootstrap", "efficiency")
DEFAULT_SEED = 20260819
# fresh processes per run; each one gives a setup_s and a peak_rss_mb sample
PROCESSES = 3
# one run, including its last process, ends within this many seconds
RUN_BUDGET_S = 170.0
# NumPy and SciPy each load their own OpenBLAS; one thread each keeps the
# single-client load at one running thread, never more than the cores
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildFailed(Exception):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    """Run workloads.py once and return its JSON record plus its start time."""
    env = dict(os.environ)
    for var, value in PINNED_THREADS.items():
        env.setdefault(var, value)
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *args],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{' '.join(args)}: no result within the run budget") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args)}: exited with code {proc.returncode}")
    record = json.loads(out.decode().strip().splitlines()[-1])
    record["started"] = started
    return record


def thread_problems(record: dict) -> list[str]:
    cores = record["env"]["affinity"]
    if record["threads"] > cores:
        return [f"the load ran {record['threads']} threads on {cores} cores"]
    return []


def measure(name: str, seed: int, seconds: float, extra: list[str]) -> dict:
    """One client in a closed loop for about ``seconds``, over fresh processes.

    Each process sets up the workload once, then calls it back to back until
    its share of the run is used.
    """
    begin = time.monotonic()
    records = []
    for i in range(PROCESSES):
        until = begin + seconds * (i + 1) / PROCESSES
        args = ["--workload", name, "--seed", str(seed), "--until", repr(until), *extra]
        rec = run_child(args, begin + RUN_BUDGET_S)
        rec["setup_s"] = rec["ready"] - rec["started"]
        records.append(rec)
    walls = [w for rec in records for w in rec["walls"]]
    # the processes share a seed, so they usually share their problems too
    problems = [p for rec in records for p in rec["problems"] + thread_problems(rec)]
    problems = list(dict.fromkeys(problems))
    if any(rec["summary"] != records[0]["summary"] for rec in records):
        problems.append(f"{name}: outputs differ between processes with the same seed")
    attempted = sum(rec["attempted"] for rec in records)
    failed = sum(rec["failed"] for rec in records)
    metrics = {
        "setup_s": {"value": statistics.median(r["setup_s"] for r in records), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(r["peak_rss_mb"] for r in records),
            "unit": "MB",
        },
    }
    print(f"# env {json.dumps(records[0]['env'], sort_keys=True)}")
    print(
        f"# {name} seed={seed} processes={len(records)} calls={len(walls)}: "
        + " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items())
        + f" failed_frac={failed / attempted:.6g} ({failed}/{attempted} ops)"
    )
    print(f"# {name} wall_s per call: " + " ".join(f"{w:.4g}" for w in walls))
    for p in problems:
        print(f"# FAILED {p}")
    return {"problems": problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced(seed: int, extra: list[str]) -> dict:
    rec = run_child(["--trace", "--seed", str(seed), *extra], time.monotonic() + RUN_BUDGET_S)
    problems = rec["problems"] + thread_problems(rec)
    print(f"# env {json.dumps(rec['env'], sort_keys=True)}")
    for name, r in rec["replayed"].items():
        verdict = "reproduced the call" if not r["mismatched"] else "DIFFERS from the call"
        print(f"# {name}: replay {verdict} ({r['compared']} values compared)")
    for key, m in rec["metrics"].items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"# FAILED {p}")
    return {
        "problems": problems,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": rec["metrics"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes, no reference check")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "margfit" / "__init__.py").is_file():
        print(f"perfbench: no margfit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    extra = ["--tiny"] if args.tiny else []
    try:
        if args.trace:
            out = traced(args.seed, extra)
        elif args.workload != "all":
            out = measure(args.workload, args.seed, args.seconds, extra)
        else:
            parts = {w: measure(w, args.seed, args.seconds, extra) for w in WORKLOADS}
            out = {
                "problems": [p for part in parts.values() for p in part["problems"]],
                "attempted": sum(part["attempted"] for part in parts.values()),
                "failed": sum(part["failed"] for part in parts.values()),
                "metrics": {
                    f"{w}.{k}": m for w, part in parts.items() for k, m in part["metrics"].items()
                },
            }
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    correct = not out["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": out["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
