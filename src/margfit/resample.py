"""Resampling distributions for the estimators: random weights and bootstrap.

The random-weight scheme perturbs the estimating equation itself: one unit
exponential e_i per failure, normalized to e_i / sum e, multiplies that
failure's score term while the marginal weights W stay fixed at their
original-data values (tied failures draw independent weights). So the
beta-free state (the kernel's risk-set index, and W at the failures from
the Kaplan-Meier curve or fitted marginal) is built once per run, from the
original data, and serves the point fit and every draw; a draw changes
only the multipliers. ``parallel_map`` hands the draws over in blocks,
each with its own substream: a block's multipliers stack into one (draws x
failures) array that scales W into the block's rows, and one batched Newton
solves them together, each draw with the bits it would get alone. The
nonparametric bootstrap instead resamples subjects and repeats the point
estimate's own steps on each replicate: a parametric marginal given by
family name is refit, a supplied marginal model is kept as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._parallel import check_integer, check_jobs, parallel_map
from .dataset import SurvivalDataset, _write_table
from .errors import ConfigError, DataError, FitError
from .estimate import FitResult, WeightScheme, _alone, _newton, _solved, solve_score

__all__ = [
    "ResampleResult",
    "random_weight_fit",
    "resample_distribution",
    "bootstrap",
]


@dataclass(frozen=True)
class ResampleResult:
    """Draws of one resampling distribution plus the original fit."""

    method: str
    draws: np.ndarray
    se: np.ndarray
    point: FitResult
    n_failed: int
    failures: tuple
    seed: int

    def export_csv(self, path) -> None:
        """Write the draws as CSV: header ``beta1,...,betad``, then one row
        per successful draw, each value written by ``repr`` so it reads
        back to the same bits."""
        header = [f"beta{j + 1}" for j in range(self.draws.shape[1])]
        _write_table(path, header, self.draws.tolist())


def _event_multipliers(e: np.ndarray, m: int) -> np.ndarray:
    """Score multipliers e_i / sum e at the m failures, one row per row of
    ``e`` (draws x failures); returns (draws x failures)."""
    if e.shape[1:] != (m,):
        raise ConfigError(f"need one exponential draw per failure ({m})")
    if np.any(e <= 0):
        raise ConfigError("resampling weights must be positive")
    # each row of a C-ordered array sums in the order it would alone. Equal
    # weights normalize to exactly one: keep the unweighted score
    # bit-for-bit so a degenerate draw reproduces the point estimate
    mult = e / e.sum(axis=1, keepdims=True)
    mult[np.ptp(e, axis=1) == 0.0] = 1.0
    return mult


def _random_weight_kernel(data, scheme, ties):
    """``_alone``'s (kernel, row); under Efron, tied failures are a ConfigError:
    they draw independent multipliers, where Efron needs one per tie group."""
    kernel, row = _alone(data, scheme, ties)
    if kernel.frac is not None and kernel.starts.size < kernel.ev.size:
        raise ConfigError(
            "random weights take ties='efron' only when no failure times are tied"
        )
    return kernel, row


def random_weight_fit(
    data: SurvivalDataset,
    scheme: WeightScheme,
    rng,
    *,
    ties: str = "breslow",
) -> np.ndarray:
    """One perturbed solve: multiply the i-th event's score term by e_i / sum e.

    ``rng`` needs an ``exponential(size=n_t)`` method, n_t the number of
    failures; marginal weights are not re-estimated. Under ``ties='efron'``
    no failure times may be tied.
    """
    kernel, (_, _, w) = _random_weight_kernel(data, scheme, ties)
    if not hasattr(rng, "exponential"):
        rng = np.random.default_rng(rng)
    [(beta, error)] = _random_weight_draws(kernel, w, [rng])
    if error is not None:
        raise error
    return beta


def _random_weight_draws(kernel, w, rngs) -> list:
    """Rows (beta, error): ``kernel``'s score at W ``w`` (m,), solved under
    one draw per rng. The draws' multipliers scale ``w`` into one batch that
    ``_newton`` solves together; each row is what its draw alone gives."""
    m = kernel.ev.size
    e = np.array([rng.exponential(size=m) for rng in rngs], dtype=float)
    beta, _, _, _, errors = _newton(kernel, w * _event_multipliers(e, m))
    return list(zip(beta, errors))


def _bootstrap_draws(data, scheme, ties, rngs) -> list:
    """Rows (beta, error): ``scheme`` solved on one replicate of ``data`` per
    rng; a replicate that cannot be fit has beta None and the error it raised."""
    rows = []
    for rng in rngs:
        idx = rng.integers(0, data.n, size=data.n)
        try:
            rep = SurvivalDataset(data.time[idx], data.status[idx], data.covariates[idx])
            rows.append((solve_score(rep, scheme, ties=ties, variance="none").beta, None))
        except (FitError, DataError) as exc:
            # its traceback would keep the replicate's frames alive
            rows.append((None, exc.with_traceback(None)))
    return rows


def _require_draws(n_draws, seed, jobs) -> None:
    """Refuse a draw count or seed that ``default_rng([seed, b])`` cannot
    take, and a ``jobs`` that ``check_jobs`` refuses, before any fit."""
    check_jobs(jobs)
    for name, value in (("n_draws", n_draws), ("seed", seed)):
        check_integer(value, name)
    if n_draws < 2:
        raise ConfigError("need at least 2 draws")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


def _run_draws(solve, point, n_draws, seed, jobs, method, abort_over):
    """The distribution of ``solve``'s rows (beta, error) for draws b < n_draws."""
    rows = parallel_map(solve, seed, n_draws, jobs)
    draws = [beta for beta, err in rows if err is None]
    failures = tuple((b, str(err)) for b, (_, err) in enumerate(rows) if err is not None)
    if abort_over is not None and len(failures) > abort_over * n_draws:
        raise FitError(
            f"{len(failures)}/{n_draws} resampling draws failed "
            f"(> {abort_over:.0%}): first: draw {failures[0][0]}: {failures[0][1]}"
        )
    if len(draws) < 2:
        raise FitError("fewer than 2 successful draws; cannot form an SE")
    mat = np.vstack(draws)
    return ResampleResult(
        method=method,
        draws=mat,
        se=mat.std(axis=0, ddof=1),
        point=point,
        n_failed=len(failures),
        failures=failures,
        seed=seed,
    )


def resample_distribution(
    data: SurvivalDataset,
    scheme: WeightScheme,
    n_draws: int = 1000,
    seed: int = 0,
    *,
    ties: str = "breslow",
    jobs: int | None = None,
) -> ResampleResult:
    """Random-weight resampling distribution with per-draw substreams.

    ``parallel_map`` draws b from ``default_rng([seed, b])``, so results
    are independent of ``jobs`` and scheduling. The beta-free state is
    built once, from ``data``, and serves the point fit and every draw
    (with ``jobs > 1`` each worker's range of draws receives a pickled
    copy); a family-named parametric marginal is thus fitted once and stays
    fixed across draws. ``parallel_map`` hands the draws over in blocks of
    up to 16, each solved by one batched Newton, so memory stays at one
    block's whatever ``n_draws`` is; a draw's root and failure message do
    not depend on its block. ``ties='efron'`` needs untied failure times.
    ``n_draws`` (at least 2) and ``seed`` (nonnegative) must be integers.
    More than 5% failed draws aborts. No ``jobs`` uses the CPUs where
    processes fork, by the rule of ``_parallel.default_jobs``, as for
    ``run_study``.
    """
    _require_draws(n_draws, seed, jobs)
    kernel, row = _random_weight_kernel(data, scheme, ties)
    return _run_draws(
        partial(_random_weight_draws, kernel, row[2]),
        _solved(kernel, [row]),
        n_draws,
        seed,
        jobs,
        "random-weight",
        abort_over=0.05,
    )


def bootstrap(
    data: SurvivalDataset,
    scheme: WeightScheme,
    n_draws: int = 500,
    seed: int = 0,
    *,
    ties: str = "breslow",
    jobs: int | None = None,
) -> ResampleResult:
    """Nonparametric bootstrap: resample subjects and solve ``scheme`` again.

    A family-named parametric marginal is refit to each replicate, a
    supplied model is kept. Replicates that cannot be fit (no events,
    degenerate risk sets) are skipped and recorded in ``failures`` rather
    than aborting, since heavy censoring can make occasional empty
    replicates expected behavior. No ``jobs`` uses the CPUs where
    processes fork, by the rule of ``_parallel.default_jobs``, as for
    ``run_study``.
    """
    _require_draws(n_draws, seed, jobs)
    return _run_draws(
        partial(_bootstrap_draws, data, scheme, ties),
        solve_score(data, scheme, ties=ties),
        n_draws,
        seed,
        jobs,
        "bootstrap",
        abort_over=None,
    )
