"""Weighted score equations and the three relative-risk estimators.

The estimating equation is

    U_W(beta) = sum_i delta_i W(X_i) { Z_i - E(beta, X_i) } = 0,

where E(beta, t) is the exponentially tilted covariate mean of the risk set
at t. Three weight choices give the three estimators:

* ``Constant``      : W = 1, the partial-likelihood estimator.
* ``KaplanMeier``   : W(t) = S_km(t) / (n S0(0, t)), the product-limit
  weighted estimator whose target is the failure-time-averaged coefficient,
  independent of censoring.
* ``Parametric``    : W(t) = S_model(t) / (n S0(0, t)) for a marginal
  survival model that is either supplied or, given as a family name,
  fitted to the data the score is solved on.

Solving is Newton-Raphson with step halving; variances are Andersen-Gill
(information inverse) for the constant weights and the robust sandwich
A^{-1} B A^{-1} for weighted schemes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .dataset import SurvivalDataset
from .errors import ConfigError, ConvergenceError, DataError, FitError
from .marginal import (
    MarginalModel,
    fit_family,
    kaplan_meier,
    model_params,
    parse_family,
    survival_at,
)

__all__ = [
    "Constant",
    "KaplanMeier",
    "Parametric",
    "WeightScheme",
    "FitResult",
    "event_weights",
    "weighted_score",
    "score_jacobian",
    "log_partial_likelihood",
    "solve_score",
    "variance_andersen_gill",
    "variance_sandwich",
    "iterative_marginal_fit",
]


@dataclass(frozen=True)
class Constant:
    """Unit weights: the partial-likelihood score."""

    def describe(self) -> str:
        return "constant"


@dataclass(frozen=True)
class KaplanMeier:
    """Product-limit marginal weights S_km(t) / (n S0(0, t))."""

    def describe(self) -> str:
        return "kaplan-meier"


@dataclass(frozen=True)
class Parametric:
    """Marginal-model weights S_model(t) / (n S0(0, t)).

    ``model`` is either a marginal model, supplied and used as given, or a
    family name ``exponential | weibull | pwexp[:c1,c2,...]``, fitted to
    whatever dataset the scheme is solved on (so refit per bootstrap draw).
    """

    model: MarginalModel | str

    def __post_init__(self) -> None:
        if isinstance(self.model, str):
            parse_family(self.model)

    def describe(self) -> str:
        return f"parametric:{type(self.model).__name__.lower()}"


WeightScheme = Union[Constant, KaplanMeier, Parametric]


@dataclass(frozen=True)
class FitResult:
    """Outcome of a score-equation solve."""

    beta: np.ndarray
    variance: np.ndarray
    std_errors: np.ndarray
    iterations: int
    converged: bool
    final_score_norm: float
    scheme: str
    ties: str
    n: int
    n_events: int
    theta: dict | None = field(default=None)

    def to_dict(self) -> dict:
        out = {
            "beta": [float(b) for b in self.beta],
            "std_errors": [float(s) for s in self.std_errors],
            "variance": [[float(v) for v in row] for row in self.variance],
            "iterations": self.iterations,
            "converged": self.converged,
            "final_score_norm": float(self.final_score_norm),
            "scheme": self.scheme,
            "ties": self.ties,
            "n": self.n,
            "n_events": self.n_events,
        }
        if self.theta is not None:
            out["theta_hat"] = self.theta
        return out

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)


def event_weights(data: SurvivalDataset, scheme: WeightScheme) -> np.ndarray:
    """Per-subject weight W(X_i), meaningful at event rows.

    For the Kaplan-Meier and parametric schemes, ``n S0(0, t)`` is the
    at-risk count, and the marginal survival is evaluated left-continuously
    for step models, so the weight at an event time uses the survival value
    just before that event.
    """
    if isinstance(scheme, Constant):
        return np.ones(data.n)
    first = np.searchsorted(data.time, data.time, side="left")
    at_risk = (data.n - first).astype(float)
    if isinstance(scheme, KaplanMeier):
        surv = kaplan_meier(data)(data.time)
    elif isinstance(scheme, Parametric):
        model = _fit_marginal(data, scheme).model
        surv = np.asarray(survival_at(model, data.time), dtype=float)
    else:
        raise ConfigError(f"unknown weight scheme {scheme!r}")
    return surv / at_risk


def _fit_marginal(data: SurvivalDataset, scheme: WeightScheme) -> WeightScheme:
    """The scheme with a family-named marginal fitted to ``data``; else as is."""
    if isinstance(scheme, Parametric) and isinstance(scheme.model, str):
        return Parametric(fit_family(data, scheme.model))
    return scheme


def _check_ties(scheme: WeightScheme, ties: str) -> None:
    if ties not in ("breslow", "efron"):
        raise ConfigError(f"ties must be 'breslow' or 'efron', got {ties!r}")
    if ties == "efron" and not isinstance(scheme, Constant):
        raise ConfigError("the Efron tie correction applies to constant weights only")


def _suffix_sums(data: SurvivalDataset, beta: np.ndarray):
    """Unnormalized risk-set sums at each subject's own time.

    Returns (s0, s1, s2, w) where s0[i] = sum_{j: X_j >= X_i} w_j and so on;
    w_j = exp(beta' Z_j). Ratios e and v are unaffected by the missing 1/n.
    """
    z = data.covariates
    w = np.exp(z @ beta)
    first = np.searchsorted(data.time, data.time, side="left")
    s0 = np.cumsum(w[::-1])[::-1][first]
    s1 = np.cumsum((w[:, None] * z)[::-1], axis=0)[::-1][first]
    zz = z[:, :, None] * z[:, None, :]
    s2 = np.cumsum((w[:, None, None] * zz)[::-1], axis=0)[::-1][first]
    return s0, s1, s2, w


def _tie_groups(data: SurvivalDataset):
    """Indices of event rows grouped by tied event time (groups of size >= 2)."""
    ev = np.flatnonzero(data.status == 1)
    if ev.size == 0:
        return []
    t = data.time[ev]
    cut = np.flatnonzero(np.diff(t) != 0) + 1
    return [g for g in np.split(ev, cut) if g.size >= 2]


def _score_terms(
    data: SurvivalDataset,
    scheme: WeightScheme,
    beta: np.ndarray,
    ties: str,
    event_multipliers: np.ndarray | None,
):
    """Return (U, J, events_w, v_events) for the weighted score at beta.

    ``event_multipliers`` is an optional per-subject extra factor on the
    score terms (the resampling hook); it must be constant across events
    tied at the same time when ties='efron'.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape != (data.d,):
        raise DataError(f"beta must have length {data.d}")
    data.require_events()
    _check_ties(scheme, ties)
    s0, s1, s2, w = _suffix_sums(data, beta)
    z = data.covariates
    ev = data.status == 1
    e = s1 / s0[:, None]
    v = s2 / s0[:, None, None] - e[:, :, None] * e[:, None, :]
    wt = event_weights(data, scheme)
    if event_multipliers is not None:
        wt = wt * np.asarray(event_multipliers, dtype=float)
    wte = wt[ev]
    U = (wte[:, None] * (z[ev] - e[ev])).sum(axis=0)
    J = -(wte[:, None, None] * v[ev]).sum(axis=0)
    if ties == "efron":
        for g in _tie_groups(data):
            i0 = g[0]
            dk = g.size
            wg = wt[i0]
            if event_multipliers is not None and not np.allclose(wt[g], wg):
                raise ConfigError(
                    "event multipliers must be shared within tied event times"
                )
            # remove the Breslow terms for this group, add the Efron ones
            U -= wg * (z[g].sum(axis=0) - dk * e[i0])
            J += wg * dk * v[i0]
            d0 = w[g].sum()
            d1 = w[g] @ z[g]
            d2 = np.einsum("j,jk,jl->kl", w[g], z[g], z[g])
            U += wg * z[g].sum(axis=0)
            for ell in range(dk):
                f = ell / dk
                s0l = s0[i0] - f * d0
                e_l = (s1[i0] - f * d1) / s0l
                v_l = (s2[i0] - f * d2) / s0l - np.outer(e_l, e_l)
                U -= wg * e_l
                J -= wg * v_l
    return U, J, wt, v


def weighted_score(
    data: SurvivalDataset,
    scheme: WeightScheme,
    beta,
    *,
    ties: str = "breslow",
    event_multipliers: np.ndarray | None = None,
) -> np.ndarray:
    """The weighted score U_W(beta) = sum delta_i W(X_i){Z_i - E(beta, X_i)}."""
    U, _, _, _ = _score_terms(data, scheme, beta, ties, event_multipliers)
    return U


def score_jacobian(
    data: SurvivalDataset,
    scheme: WeightScheme,
    beta,
    *,
    ties: str = "breslow",
    event_multipliers: np.ndarray | None = None,
) -> np.ndarray:
    """dU_W/dbeta = -sum delta_i W(X_i) V(beta, X_i); negative semidefinite."""
    _, J, _, _ = _score_terms(data, scheme, beta, ties, event_multipliers)
    return J


def log_partial_likelihood(
    data: SurvivalDataset, beta, *, ties: str = "breslow"
) -> float:
    """l(beta) = sum delta_i [beta'Z_i - log S0(beta, X_i)].

    The Breslow form; with ties='efron' the tied-event denominators are
    progressively downweighted. Its gradient is the constant-weight score.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    _check_ties(Constant(), ties)
    s0, _, _, w = _suffix_sums(data, beta)
    ev = data.status == 1
    n = data.n
    ll = float((data.covariates[ev] @ beta).sum() - np.log(s0[ev] / n).sum())
    if ties == "efron":
        for g in _tie_groups(data):
            i0 = g[0]
            dk = g.size
            d0 = w[g].sum()
            ll += np.log(s0[i0] / n) * dk
            for ell in range(dk):
                ll -= np.log((s0[i0] - (ell / dk) * d0) / n)
    return ll


def variance_andersen_gill(
    data: SurvivalDataset, beta, *, ties: str = "breslow"
) -> np.ndarray:
    """Information-inverse variance of the partial-likelihood estimator.

    With I = n^{-1} sum delta_i V(beta, X_i), returns I^{-1}/n, i.e. the
    variance on the coefficient scale.
    """
    _, J, _, _ = _score_terms(data, Constant(), np.asarray(beta, float), ties, None)
    info = -J
    try:
        return np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise FitError("singular information matrix") from None


def variance_sandwich(
    data: SurvivalDataset, scheme: WeightScheme, beta
) -> np.ndarray:
    """Robust variance A^{-1} B A^{-1} / n for weighted estimating equations.

    A = n^{-1} sum delta_i W V, B = n^{-1} sum delta_i W^2 V. Invariant to
    rescaling the weights; equals the Andersen-Gill variance when W = 1.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    _, _, wt, v = _score_terms(data, scheme, beta, "breslow", None)
    ev = data.status == 1
    wte = wt[ev]
    a = (wte[:, None, None] * v[ev]).sum(axis=0)
    b = ((wte**2)[:, None, None] * v[ev]).sum(axis=0)
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise FitError("singular sandwich A matrix") from None
    return a_inv @ b @ a_inv


def solve_score(
    data: SurvivalDataset,
    scheme: WeightScheme,
    init=None,
    tol: float = 1e-9,
    max_iter: int = 50,
    *,
    ties: str = "breslow",
    variance: str = "auto",
    event_multipliers: np.ndarray | None = None,
) -> FitResult:
    """Solve U_W(beta) = 0 by Newton-Raphson with step halving.

    Parameters
    ----------
    data : SurvivalDataset
    scheme : WeightScheme
    init : array-like, optional
        Starting value (default zero vector).
    tol : float
        Convergence on the max-norm of the score.
    max_iter : int
        Newton iteration budget; each step allows up to 20 halvings.
    ties : {'breslow', 'efron'}
        Efron is available for the constant scheme only.
    variance : {'auto', 'andersen-gill', 'sandwich', 'none'}
        'auto' pairs constant weights with Andersen-Gill and weighted
        schemes with the sandwich.

    A family-named parametric marginal is fitted to ``data`` once, before
    the first Newton step, and its parameters are recorded in ``theta``.

    Raises
    ------
    FitError
        Singular Jacobian (collinear or degenerate covariates), or a
        marginal family that cannot be fitted.
    ConvergenceError
        No convergence within ``max_iter``.
    """
    fitted = _fit_marginal(data, scheme)
    theta = model_params(fitted.model) if fitted is not scheme else None
    scheme = fitted
    data.require_events()
    _check_ties(scheme, ties)
    if variance not in ("auto", "andersen-gill", "sandwich", "none"):
        raise ConfigError(f"unknown variance rule {variance!r}")
    beta = np.zeros(data.d) if init is None else np.atleast_1d(
        np.asarray(init, dtype=float)
    ).copy()
    if beta.shape != (data.d,):
        raise DataError(f"init must have length {data.d}")

    U, J, _, _ = _score_terms(data, scheme, beta, ties, event_multipliers)
    norm = float(np.abs(U).max())
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if norm < tol:
            iterations -= 1
            break
        try:
            step = np.linalg.solve(J, -U)
        except np.linalg.LinAlgError:
            raise FitError(
                "singular Jacobian: separation or degenerate covariates"
            ) from None
        scale = 1.0
        for _ in range(21):
            cand = beta + scale * step
            U_new, J_new, _, _ = _score_terms(
                data, scheme, cand, ties, event_multipliers
            )
            new_norm = float(np.abs(U_new).max())
            if np.isfinite(new_norm) and new_norm < norm:
                break
            scale *= 0.5
        else:
            raise ConvergenceError("step halving failed to reduce the score")
        beta, U, J, norm = cand, U_new, J_new, new_norm
    converged = norm < tol
    if not converged:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations (|U| = {norm:.3g})"
        )

    if variance == "none":
        var = np.full((data.d, data.d), np.nan)
    elif variance == "andersen-gill" or (
        variance == "auto" and isinstance(scheme, Constant)
    ):
        var = variance_andersen_gill(data, beta, ties=ties)
    else:
        var = variance_sandwich(data, scheme, beta)
    se = np.sqrt(np.clip(np.diag(var), 0.0, None))
    return FitResult(
        beta=beta,
        variance=var,
        std_errors=se,
        iterations=iterations,
        converged=bool(converged),
        final_score_norm=norm,
        scheme=scheme.describe(),
        ties=ties,
        n=data.n,
        n_events=data.n_events,
        theta=theta,
    )


def iterative_marginal_fit(
    data: SurvivalDataset,
    family: str = "exponential",
    *,
    cuts: tuple[float, ...] = (),
    **solver_kwargs,
) -> FitResult:
    """Fit a parametric marginal once, then solve the weighted score with it.

    The plug-in estimator ``solve_score(data, Parametric(name))``, with
    ``name`` the family and its cuts: the maximum-likelihood fit, recorded
    in ``theta``, fixes the weights for the whole solve.

    Parameters
    ----------
    family : {'exponential', 'weibull', 'pwexp'}
    cuts : tuple of float
        Interval cuts for the 'pwexp' family.
    """
    if cuts:
        family = f"{family}:{','.join(repr(float(c)) for c in cuts)}"
    return solve_score(data, Parametric(family), **solver_kwargs)
