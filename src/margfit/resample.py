"""Resampling distributions for the estimators: random weights and bootstrap.

The random-weight scheme perturbs the estimating equation itself: one unit
exponential e_i per failure, normalized to e_i / sum e, multiplies that
failure's score term while the marginal weights W stay fixed at their
original-data values (tied failures draw independent weights). So the
beta-free state (the Kaplan-Meier curve or fitted marginal, the weights
and the risk-set index) is built once per run, from the original data, and
serves the point fit and every draw; a draw changes only the multipliers.
Draws are solved in blocks of ``_BLOCK_DRAWS``: the block's multipliers
stack into one (draws x failures) array that scales the kernel's weights
at the failures, and one batched Newton solves them together, each draw
with the bits it would get alone. The nonparametric bootstrap instead
resamples subjects and repeats the point estimate's own steps on each
replicate: a parametric marginal given by family name is refit, a
supplied marginal model is kept as given.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._parallel import parallel_map
from .dataset import SurvivalDataset, _write_table
from .errors import ConfigError, DataError, FitError
from .estimate import FitResult, WeightScheme, _Kernel, _newton, _solved, solve_score

__all__ = [
    "ResampleResult",
    "random_weight_fit",
    "resample_distribution",
    "bootstrap",
]

# random-weight draws solved together in one batched Newton. The block
# bounds the (draws x subjects) risk-set arrays, so memory does not grow
# with n_draws, and sets how many Python-level Newton passes a run makes.
# At n = 1500 a warm 1000-draw run faults at most a few pages in blocks of
# 16, but about 16,000 in blocks of 32 (and 20,000 in blocks of 24 once
# SciPy is loaded): their Newton steps give the heap top back to the
# system and fault it in again
_BLOCK_DRAWS = 16


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


def random_weight_fit(
    data: SurvivalDataset,
    scheme: WeightScheme,
    rng,
    *,
    ties: str = "breslow",
) -> np.ndarray:
    """One perturbed solve: multiply the i-th event's score term by e_i / sum e.

    ``rng`` needs an ``exponential(size=n_t)`` method, n_t the number of
    failures; marginal weights are not re-estimated. Tied failures draw
    independent weights, so the Efron tie rule (which needs a shared
    multiplier within a tie group) is not available here.
    """
    kernel = _Kernel.single(data, scheme, ties)
    if not hasattr(rng, "exponential"):
        rng = np.random.default_rng(rng)
    beta, errors = _random_weight_draws(kernel, [rng])
    if errors[0] is not None:
        raise errors[0]
    return beta[0]


def _random_weight_draws(kernel, rngs):
    """(beta (B, d), errors): ``kernel``'s score solved under one draw per rng.

    The draws' multipliers stack into one batch that ``_newton`` solves
    together; row b's root and error are what a solve of draw b alone gives.
    """
    m = kernel.ev.size
    e = np.array([rng.exponential(size=m) for rng in rngs], dtype=float)
    beta, _, _, _, errors = _newton(kernel.reweighted(_event_multipliers(e, m)))
    return beta, errors


def _bootstrap_fit(data, scheme, ties, rng):
    """Solve ``scheme`` on one bootstrap replicate of ``data``."""
    idx = rng.integers(0, data.n, size=data.n)
    rep = SurvivalDataset(
        time=data.time[idx],
        status=data.status[idx],
        covariates=data.covariates[idx],
    )
    return solve_score(rep, scheme, ties=ties, variance="none").beta


def _bootstrap_block(payload):
    """Rows (b, beta or None, error or None) for bootstrap draws ``indices``."""
    draw, seed, indices = payload
    out = []
    for b in indices:
        rng = np.random.default_rng([seed, b])
        try:
            out.append((b, draw(rng), None))
        except (FitError, DataError) as exc:
            out.append((b, None, str(exc)))
    return out


def _random_weight_block(payload):
    """Rows (b, beta or None, error or None) for random-weight draws ``indices``."""
    kernel, seed, indices = payload
    out = []
    for start in range(0, len(indices), _BLOCK_DRAWS):
        block = indices[start : start + _BLOCK_DRAWS]
        rngs = [np.random.default_rng([seed, b]) for b in block]
        beta, errors = _random_weight_draws(kernel, rngs)
        for b, row, err in zip(block, beta, errors):
            out.append((b, None, str(err)) if err is not None else (b, row, None))
    return out


def _require_draws(n_draws, seed) -> None:
    """Refuse a draw count or seed that ``default_rng([seed, b])`` cannot take."""
    for name, value in (("n_draws", n_draws), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if n_draws < 2:
        raise ConfigError("need at least 2 draws")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


def _run_draws(block, first, point, n_draws, seed, jobs, method, abort_over):
    """Collect the rows of ``block((first, seed, indices))`` for draws b < n_draws."""
    rows = parallel_map(block, (first, seed), n_draws, jobs)
    draws = [beta for _, beta, err in rows if err is None]
    failures = tuple((b, err) for b, _, err in rows if err is not None)
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

    Draw b uses ``default_rng([seed, b])``, so results are independent of
    ``jobs`` and scheduling. The beta-free state is built once, from
    ``data``, and serves the point fit and every draw (with ``jobs > 1``
    each worker's range of draws receives a pickled copy); a family-named
    parametric marginal is thus fitted once and stays fixed across draws.
    Each range is solved in blocks of 16 draws, one batched Newton per
    block, so memory stays at one block's whatever ``n_draws`` is; a
    draw's root and failure message do not depend on its block.
    ``n_draws`` (at least 2) and ``seed`` (nonnegative) must be integers.
    More than 5% failed draws aborts.
    """
    _require_draws(n_draws, seed)
    kernel = _Kernel.single(data, scheme, ties)
    return _run_draws(
        _random_weight_block,
        kernel,
        _solved(kernel),
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
    replicates expected behavior.
    """
    _require_draws(n_draws, seed)
    return _run_draws(
        _bootstrap_block,
        partial(_bootstrap_fit, data, scheme, ties),
        solve_score(data, scheme, ties=ties),
        n_draws,
        seed,
        jobs,
        "bootstrap",
        abort_over=None,
    )
