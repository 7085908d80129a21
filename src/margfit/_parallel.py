"""Block-wise process-pool map shared by the study runner and resampling."""

from __future__ import annotations

from .errors import ConfigError


def parallel_map(worker, args: tuple, n: int, jobs: int | None) -> list:
    """Rows of ``worker((*args, indices))`` for indices 0..n-1, in index order.

    With ``jobs > 1``, blocks of about n / (4 jobs) indices are mapped over a
    process pool; the rows are the same for any ``jobs``. A ``jobs`` below 1
    is a ConfigError.
    """
    if jobs is not None and jobs < 1:
        raise ConfigError(f"jobs must be at least 1, not {jobs}")
    if jobs is None or jobs <= 1:
        return worker((*args, range(n)))
    # imported here, so that a serial run never loads the process pool
    from concurrent.futures import ProcessPoolExecutor

    block = max(1, n // (4 * jobs))
    payloads = [(*args, range(s, min(s + block, n))) for s in range(0, n, block)]
    rows = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for out in pool.map(worker, payloads):
            rows.extend(out)
    return rows
