"""The seeded block map behind the study runner and both resamplers."""

from __future__ import annotations

import numbers
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


def check_jobs(jobs) -> int:
    """The worker count ``jobs`` stands for: 1 for None, else ``jobs`` itself,
    which must be an integer of at least 1 (ConfigError). Each entry point
    calls it before any work, so a bad ``jobs`` costs nothing."""
    if jobs is None:
        return 1
    if check_integer(jobs, "jobs") < 1:
        raise ConfigError(f"jobs must be at least 1, not {jobs}")
    return jobs


def parallel_map(solve, seed: int, n: int, jobs: int | None) -> list:
    """Rows of ``solve(rngs)`` for indices 0..n-1, in index order.

    ``solve`` takes a list of at most ``_BLOCK_DRAWS`` generators, index i's
    being ``default_rng([seed, i])``, and returns one row each, so a row
    depends on its index alone, not on its block, worker or ``jobs``. With
    ``jobs > 1``, ranges of about n / (4 jobs) indices go to a process pool,
    ``solve`` pickled. ``jobs`` is checked by ``check_jobs``.
    """
    jobs = check_jobs(jobs)
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
