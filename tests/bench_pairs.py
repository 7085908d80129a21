"""Compare a git revision with the working tree in alternating benchmark runs.

    python tests/bench_pairs.py REV --workload study --pairs 10 --seconds 12 [--seed S]

REV (a commit, tag or branch, usually the parent) is unpacked with ``git
archive`` into a temporary directory, and the working tree's files (tracked
and untracked, less what git ignores) are copied beside it, so both sides
run from paths of one length: the ``study`` workload's peak RSS moves by
about 0.2 MB with the length of its checkout's path alone. Each pair then
runs ``perfbench/run.py --trace 0`` once in each copy, REV first in even
pairs and the working tree first in odd ones, so a drift in the host's
load falls on both sides alike. It prints each pair's end-to-end
metrics, then for every metric each side's median and quartiles, how many
pairs the working tree won (lower is better unless ``BENCHMARK.json`` says
otherwise), and whether the gap between the medians exceeds the interquartile
range of REV's runs: a gap inside that spread is not resolved. A run that
fails its correctness gate or any operation is reported and counted.

Standard library only; pytest does not collect it. It writes nothing under
the working tree.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unpack(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` under ``into`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=ROOT,
        capture_output=True,
        check=True,
    ).stdout
    # the "data" filter refuses links and paths that leave ``into``
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)


def copy_worktree(into: Path) -> None:
    """Copy the working tree's tracked and untracked files, less ignored ones."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        check=True,
    ).stdout.decode().split("\0")
    for name in filter(None, names):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the tree is left out
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def run(checkout: Path, args) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``checkout``: its last line."""
    argv = [sys.executable, "perfbench/run.py", "--trace", "0"]
    argv += ["--workload", args.workload, "--seconds", str(args.seconds)]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{checkout}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def directions() -> dict:
    """Each end-to-end metric's better direction, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def summary(name: str, base: list, change: list, better: str) -> str:
    q_base = statistics.quantiles(base, n=4)
    q_change = statistics.quantiles(change, n=4)
    m_base, m_change = statistics.median(base), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    iqr = q_base[2] - q_base[0]
    gap = m_change - m_base
    verdict = "resolved" if abs(gap) > iqr else "unresolved"
    rel = f"{gap / m_base:+.1%}" if m_base else "n/a"
    return (
        f"{name:<28} base {m_base:.6g} [{q_base[0]:.6g}, {q_base[2]:.6g}]"
        f"  change {m_change:.6g} [{q_change[0]:.6g}, {q_change[2]:.6g}]"
        f"  {rel}, change better in {wins}/{len(base)}; gap {abs(gap):.3g}"
        f" vs base IQR {iqr:.3g}: {verdict}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the revision to compare against, e.g. HEAD~1")
    ap.add_argument("--workload", default="study")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--seed", type=int, default=None, help="run.py's default if left out")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 to give quartiles")
    better = directions()
    values: dict = {}  # metric -> side -> values in pair order
    failures = {"base": 0, "change": 0}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base_tree, work_tree = Path(tmp) / "base", Path(tmp) / "work"
        unpack(args.rev, base_tree)
        copy_worktree(work_tree)
        sides = [("base", base_tree), ("change", work_tree)]
        for pair in range(args.pairs):
            got = {}
            for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                out = run(checkout, args)
                got[side] = out["metrics"]
                if not out["correct"] or out["failed"]:
                    failures[side] += 1
                    print(f"pair {pair}: {side} correct={out['correct']} "
                          f"failed {out['failed']}/{out['attempted']} ops")
            print(f"pair {pair} (base/change): " + "  ".join(
                f"{name} {got['base'][name]['value']:.6g}/{got['change'][name]['value']:.6g}"
                for name in got["base"]
            ), flush=True)
            for name in got["base"]:
                for side in ("base", "change"):
                    values.setdefault(name, {}).setdefault(side, []).append(
                        got[side][name]["value"]
                    )
    print(f"{args.rev} (base) against the working tree (change), "
          f"{args.pairs} pairs, medians [q1, q3]:")
    for name, by_side in values.items():
        direction = better.get(name.rsplit(".", 1)[-1], "lower")
        print(summary(name, by_side["base"], by_side["change"], direction))
    print(f"runs failing the gate or an operation: base {failures['base']}, "
          f"change {failures['change']}")
    return 1 if any(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
