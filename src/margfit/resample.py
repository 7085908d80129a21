"""Resampling distributions for the estimators: random weights and bootstrap.

The random-weight scheme perturbs the estimating equation itself: one unit
exponential e_i per failure, normalized to e_i / sum e, multiplies that
failure's score term while the marginal weights W stay fixed at their
original-data values (tied failures draw independent weights). So the
beta-free state (the Kaplan-Meier curve or fitted marginal, the weights
and the risk-set index) is built once per run, from the original data, and
serves the point fit and every draw; a draw changes only the multipliers.
The nonparametric bootstrap instead resamples subjects and repeats the
point estimate's own steps on each replicate: a parametric marginal given
by family name is refit, a supplied marginal model is kept as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._parallel import parallel_map
from .dataset import SurvivalDataset
from .errors import ConfigError, DataError, FitError
from .estimate import FitResult, WeightScheme, _fit, _Kernel, _newton, solve_score

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

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "n_draws": int(self.draws.shape[0]),
            "n_failed": self.n_failed,
            "se": [float(s) for s in self.se],
            "point": self.point.to_dict(),
            "seed": self.seed,
        }

    def export_csv(self, path) -> None:
        """One column per coefficient, one row per successful draw."""
        d = self.draws.shape[1]
        header = ",".join(f"beta{j + 1}" for j in range(d))
        lines = [header]
        for row in self.draws:
            lines.append(",".join(repr(float(x)) for x in row))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _event_multipliers(data: SurvivalDataset, e: np.ndarray) -> np.ndarray:
    """Per-subject score multipliers e_i / sum e, one per failure."""
    ev = data.status == 1
    if e.shape != (int(ev.sum()),):
        raise ConfigError(f"need one exponential draw per failure ({int(ev.sum())})")
    if np.any(e <= 0):
        raise ConfigError("resampling weights must be positive")
    mult = np.ones(data.n)
    if np.ptp(e) == 0.0:
        # equal weights normalize to exactly one: keep the unweighted score
        # bit-for-bit so a degenerate draw reproduces the point estimate
        return mult
    mult[ev] = e / e.sum()
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
    kernel = _Kernel(data, scheme, ties)
    if not hasattr(rng, "exponential"):
        rng = np.random.default_rng(rng)
    return _random_weight_draw(kernel, rng)


def _random_weight_draw(kernel, rng):
    """Solve ``kernel``'s score with one draw of event multipliers from ``rng``."""
    data = kernel.data
    e = np.asarray(rng.exponential(size=data.n_events), dtype=float)
    reweighted = kernel.reweighted(_event_multipliers(data, e))
    return _newton(reweighted, np.zeros(data.d))[0]


def _bootstrap_fit(data, scheme, ties, rng):
    """Solve ``scheme`` on one bootstrap replicate of ``data``."""
    idx = rng.integers(0, data.n, size=data.n)
    rep = SurvivalDataset(
        time=data.time[idx],
        status=data.status[idx],
        covariates=data.covariates[idx],
    )
    return solve_score(rep, scheme, ties=ties, variance="none").beta


def _draw_block(payload):
    """Rows (b, beta or None, error or None) for draws b in ``indices``."""
    draw, seed, indices = payload
    out = []
    for b in indices:
        rng = np.random.default_rng([seed, b])
        try:
            out.append((b, draw(rng), None))
        except (FitError, DataError) as exc:
            out.append((b, None, str(exc)))
    return out


def _require_draws(n_draws: int) -> None:
    if n_draws < 2:
        raise ConfigError("need at least 2 draws")


def _run_draws(draw, point, n_draws, seed, jobs, method, abort_over):
    """Collect ``draw(default_rng([seed, b]))`` for b < n_draws around ``point``."""
    rows = parallel_map(_draw_block, (draw, seed), n_draws, jobs)
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
    each worker block receives a pickled copy); a family-named parametric
    marginal is thus fitted once and stays fixed across draws. More than 5%
    failed draws aborts.
    """
    _require_draws(n_draws)
    kernel = _Kernel(data, scheme, ties)
    return _run_draws(
        partial(_random_weight_draw, kernel),
        _fit(kernel, np.zeros(data.d)),
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
    _require_draws(n_draws)
    return _run_draws(
        partial(_bootstrap_fit, data, scheme, ties),
        solve_score(data, scheme, ties=ties),
        n_draws,
        seed,
        jobs,
        "bootstrap",
        abort_over=None,
    )
