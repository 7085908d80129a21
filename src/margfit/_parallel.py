"""The seeded block map behind the study runner and both resamplers."""

from __future__ import annotations

import numbers
import os
from functools import partial

import numpy as np

from .errors import ConfigError

# indices handed to a solver at once. The random-weight solver stacks a
# block's draws into one batched Newton: the block bounds its (draws x
# subjects) risk-set arrays, so memory does not grow with the draws, and
# sets how many Python-level Newton passes a run makes. At n = 1500 a warm
# 1000-draw run faults a few dozen pages at most in blocks of 16, but about 16,000
# in blocks of 32 (and 20,000 in blocks of 24 once SciPy is loaded): their
# Newton steps give the heap top back to the system and fault it in again
_BLOCK_DRAWS = 16


def _solve_range(solve, seed: int, indices: range) -> list:
    """Rows of ``solve`` over ``indices``, handed to it in blocks."""
    rows = []
    for start in range(0, len(indices), _BLOCK_DRAWS):
        block = indices[start : start + _BLOCK_DRAWS]
        rows.extend(solve([np.random.default_rng([seed, i]) for i in block]))
    return rows


def check_integer(value, name: str):
    """``value``, if it is an integer and not a bool; else a ConfigError that
    names it. The package's one integer test: each caller checks its own
    bounds after it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def check_jobs(jobs) -> None:
    """Refuse a ``jobs`` that is neither None nor an integer of at least 1
    (ConfigError). Each entry point calls it before any work, so a bad
    ``jobs`` costs nothing; ``parallel_map`` gives None its meaning."""
    if jobs is not None and check_integer(jobs, "jobs") < 1:
        raise ConfigError(f"jobs must be at least 1, not {jobs}")


def default_jobs(n: int) -> int:
    """The worker count ``parallel_map`` uses for ``n`` indices when the
    caller gives none: one per CPU this process may run on, but at most one
    per full block of ``_BLOCK_DRAWS``, so fewer than two blocks (32 indices)
    run serially and never load the pool. It is 1 unless new processes fork:
    under spawn or forkserver (the default on macOS, Windows and, from
    Python 3.14, Linux) each worker re-runs an unguarded script's
    ``__main__``. It is 1 in a daemonic process (a ``multiprocessing.Pool``
    worker), which may not start children. Each worker holds its own copy of
    the solver's state, about 33 MB for a study at n = 1500, and CPU quotas
    are not read. Starting the pool costs tens of milliseconds, about 10 ms
    more per added worker, more than a small input saves: 200 random-weight
    draws on the Freireich data take about 30 ms serially and 60 ms on
    2 CPUs. Pass ``jobs=1`` for small inputs, in a quota-limited container,
    or when already running in a process pool."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    jobs = min(cpus, n // _BLOCK_DRAWS)
    if jobs < 2:
        return 1
    # imported only here, where the pool that would import it is to start
    import multiprocessing as mp

    method = mp.get_start_method(allow_none=True) or mp.get_all_start_methods()[0]
    return jobs if method == "fork" and not mp.current_process().daemon else 1


def parallel_map(solve, seed: int, n: int, jobs: int | None) -> list:
    """Rows of ``solve(rngs)`` for indices 0..n-1, in index order.

    ``solve`` takes a list of at most ``_BLOCK_DRAWS`` generators, index i's
    being ``default_rng([seed, i])``, and returns one row each, so a row
    depends on its index alone, not on its block, worker or ``jobs``. The
    study runner and both resamplers hand ``jobs`` through, checked by
    ``check_jobs``; None means ``default_jobs(n)``, here alone. With
    ``jobs > 1``, ranges of about n / (4 jobs) indices go to a process pool,
    ``solve`` pickled; an explicit ``jobs > 1`` under spawn or forkserver
    needs the script's ``if __name__ == "__main__":`` guard.
    """
    check_jobs(jobs)
    if jobs is None:
        jobs = default_jobs(n)
    if jobs == 1:
        return _solve_range(solve, seed, range(n))
    # imported here, so that a serial run never loads the process pool
    from concurrent.futures import ProcessPoolExecutor

    step = max(1, n // (4 * jobs))
    ranges = [range(s, min(s + step, n)) for s in range(0, n, step)]
    rows = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for out in pool.map(partial(_solve_range, solve, seed), ranges):
            rows.extend(out)
    return rows
