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

Scores, Jacobians, variances and the log partial likelihood evaluate
through one prepared state, ``_Kernel``, built once per (data, scheme,
ties, event multipliers); only the sums of ``dataset._risk_set_sums``
depend on beta. Efron ties (Efron 1977) are Breslow at adjusted sums: the
l-th of d_k failures tied at a time sees S_r - (l/d_k) D_r, D_r the tie
group's own sums.

Solving is Newton-Raphson with step halving; variances are Andersen-Gill
(information inverse) for the constant weights and the robust sandwich
A^{-1} B A^{-1} for weighted schemes, both under the fit's tie rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .dataset import SurvivalDataset, _risk_set_sums
from .errors import ConfigError, ConvergenceError, DataError, FitError
from .marginal import (
    MarginalModel,
    fit_family,
    kaplan_meier,
    load_external_curve,
    model_params,
    parse_family,
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

# Newton stops once the max-norm of the score is below _TOL, and fails after
# _MAX_ITER steps
_TOL = 1e-9
_MAX_ITER = 50


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
        if isinstance(self.model, str):
            return f"parametric:{parse_family(self.model)[0]}"
        return f"parametric:{type(self.model).__name__.lower()}"


WeightScheme = Union[Constant, KaplanMeier, Parametric]


def _parse_scheme(spec: str) -> WeightScheme:
    """Scheme string ``pl | km | par:<family> | curve:FILE`` -> WeightScheme.

    The package's one scheme grammar, read by the CLI and by the study
    runner's estimator names. ``par:<family>`` names a parametric family
    (exponential, weibull or pwexp[:cut1,cut2,...]) that is fitted to the
    data the scheme is solved on; ``curve:FILE`` supplies an external
    survival curve as given.
    """
    if spec == "pl":
        return Constant()
    if spec == "km":
        return KaplanMeier()
    if spec.startswith("par:"):
        return Parametric(spec[len("par:") :])
    if spec.startswith("curve:"):
        return Parametric(load_external_curve(spec[len("curve:") :]))
    raise ConfigError(
        f"unknown scheme {spec!r}; expected pl, km, par:exponential, "
        "par:weibull, par:pwexp:cut1,cut2,..., or curve:FILE"
    )


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
        surv = np.asarray(model.survival(data.time), dtype=float)
    else:
        raise ConfigError(f"unknown weight scheme {scheme!r}")
    return surv / at_risk


def _fit_marginal(data: SurvivalDataset, scheme: WeightScheme) -> WeightScheme:
    """The scheme with a family-named marginal fitted to ``data``; else as is."""
    if isinstance(scheme, Parametric) and isinstance(scheme.model, str):
        return Parametric(fit_family(data, scheme.model))
    return scheme


class _Kernel:
    """The beta-free state of one weighted score, evaluated at any beta.

    ``weights`` is the scheme's W at each failure, ``score_weights`` W times
    the event multipliers; under Efron, ``frac`` is each failure's l/d_k.
    """

    def __init__(self, data, scheme, ties="breslow", event_multipliers=None):
        data.require_events()
        if ties not in ("breslow", "efron"):
            raise ConfigError(f"ties must be 'breslow' or 'efron', got {ties!r}")
        if ties == "efron" and not isinstance(scheme, Constant):
            raise ConfigError("the Efron tie correction applies to constant weights only")
        # every check runs before the marginal fit, whose failure would hide it
        self.scheme = _fit_marginal(data, scheme)
        self.data = data
        self.ev = np.flatnonzero(data.status == 1)
        self.z = data.covariates[self.ev]
        self.first = np.searchsorted(data.time, data.time[self.ev], side="left")
        self.weights = event_weights(data, self.scheme)[self.ev]
        mult = np.ones(data.n) if event_multipliers is None else event_multipliers
        self.score_weights = self.weights * np.asarray(mult, dtype=float)[self.ev]
        self.frac = None
        if ties == "efron":
            _, self.starts, sizes = np.unique(
                data.time[self.ev], return_index=True, return_counts=True
            )
            self.group = np.repeat(np.arange(sizes.size), sizes)
            shared = self.score_weights[self.starts][self.group]
            if not np.allclose(self.score_weights, shared):
                raise ConfigError(
                    "event multipliers must be shared within tied event times"
                )
            self.score_weights = shared
            rank = np.arange(self.ev.size) - self.starts[self.group]
            self.frac = rank / sizes[self.group]
            self.zz = self.z[:, :, None] * self.z[:, None, :]

    def moments(self, beta):
        """S0, the tilted mean E and variance V of each failure's risk set."""
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        if beta.shape != (self.data.d,):
            raise DataError(f"beta must have length {self.data.d}")
        z = self.data.covariates
        w = np.exp(z @ beta)
        s0, s1, s2 = _risk_set_sums(z, w, self.first)
        if self.frac is not None:
            f, we = self.frac, w[self.ev]

            def tied(x):  # D_r: the sum of x over each failure's tie group
                return np.add.reduceat(x, self.starts, axis=0)[self.group]

            s0 = s0 - f * tied(we)
            s1 = s1 - f[:, None] * tied(we[:, None] * self.z)
            s2 = s2 - f[:, None, None] * tied(we[:, None, None] * self.zz)
        e = s1 / s0[:, None]
        v = s2 / s0[:, None, None] - e[:, :, None] * e[:, None, :]
        return s0, e, v

    def score(self, beta):
        """(U, J): the weighted score and its Jacobian at beta."""
        _, e, v = self.moments(beta)
        w = self.score_weights
        U = (w[:, None] * (self.z - e)).sum(axis=0)
        J = -(w[:, None, None] * v).sum(axis=0)
        return U, J

    def log_likelihood(self, beta) -> float:
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        s0, _, _ = self.moments(beta)
        return float((self.z @ beta).sum() - np.log(s0 / self.data.n).sum())

    def andersen_gill(self, beta) -> np.ndarray:
        """Information inverse, (sum_events V)^{-1}, under the kernel's ties."""
        _, _, v = self.moments(beta)
        try:
            return np.linalg.inv(v.sum(axis=0))
        except np.linalg.LinAlgError:
            raise FitError("singular information matrix") from None

    def sandwich(self, beta) -> np.ndarray:
        """A^{-1} B A^{-1} with the scheme's weights, under the kernel's ties."""
        _, _, v = self.moments(beta)
        w = self.weights
        a = (w[:, None, None] * v).sum(axis=0)
        b = ((w**2)[:, None, None] * v).sum(axis=0)
        try:
            a_inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            raise FitError("singular sandwich A matrix") from None
        return a_inv @ b @ a_inv


def weighted_score(
    data: SurvivalDataset,
    scheme: WeightScheme,
    beta,
    *,
    ties: str = "breslow",
    event_multipliers: np.ndarray | None = None,
) -> np.ndarray:
    """The weighted score U_W(beta) = sum delta_i W(X_i){Z_i - E(beta, X_i)}.

    ``event_multipliers`` (the resampling hook) scale the terms; under
    ties='efron' they must be shared within tied event times.
    """
    return _Kernel(data, scheme, ties, event_multipliers).score(beta)[0]


def score_jacobian(
    data: SurvivalDataset,
    scheme: WeightScheme,
    beta,
    *,
    ties: str = "breslow",
    event_multipliers: np.ndarray | None = None,
) -> np.ndarray:
    """dU_W/dbeta = -sum delta_i W(X_i) V(beta, X_i); negative semidefinite."""
    return _Kernel(data, scheme, ties, event_multipliers).score(beta)[1]


def log_partial_likelihood(
    data: SurvivalDataset, beta, *, ties: str = "breslow"
) -> float:
    """l(beta) = sum delta_i [beta'Z_i - log S0(beta, X_i)].

    The Breslow form; with ties='efron' each tied failure's S0 is the
    Efron-adjusted sum. Its gradient is the constant-weight score.
    """
    return _Kernel(data, Constant(), ties).log_likelihood(beta)


def variance_andersen_gill(
    data: SurvivalDataset, beta, *, ties: str = "breslow"
) -> np.ndarray:
    """Information-inverse variance of the partial-likelihood estimator.

    With I = n^{-1} sum delta_i V(beta, X_i), returns I^{-1}/n, i.e. the
    variance on the coefficient scale.
    """
    return _Kernel(data, Constant(), ties).andersen_gill(beta)


def variance_sandwich(
    data: SurvivalDataset, scheme: WeightScheme, beta
) -> np.ndarray:
    """Robust variance A^{-1} B A^{-1} / n for weighted estimating equations.

    A = n^{-1} sum delta_i W V, B = n^{-1} sum delta_i W^2 V, with Breslow
    ties. Invariant to rescaling the weights; equals the Andersen-Gill
    variance when W = 1.
    """
    return _Kernel(data, scheme).sandwich(beta)


def solve_score(
    data: SurvivalDataset,
    scheme: WeightScheme,
    init=None,
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
    ties : {'breslow', 'efron'}
        Efron is available for the constant scheme only.
    variance : {'auto', 'andersen-gill', 'sandwich', 'none'}
        'auto' pairs constant weights with Andersen-Gill and weighted
        schemes with the sandwich. Both follow ``ties``.

    Newton stops once the max-norm of the score is below 1e-9; the budget
    is 50 iterations, each allowing up to 20 step halvings. Both are fixed.
    Every check of the arguments runs before any marginal is fitted.

    The beta-free state is built once: a Kaplan-Meier curve or a
    family-named parametric marginal is fitted to ``data`` once, before
    the first Newton step, and serves every step and the variance; a
    fitted family's parameters are recorded in ``theta``.

    Raises
    ------
    FitError
        Singular Jacobian (collinear or degenerate covariates), or a
        marginal family that cannot be fitted.
    ConvergenceError
        No convergence within 50 iterations.
    """
    if variance not in ("auto", "andersen-gill", "sandwich", "none"):
        raise ConfigError(f"unknown variance rule {variance!r}")
    beta = np.zeros(data.d) if init is None else np.atleast_1d(
        np.asarray(init, dtype=float)
    ).copy()
    if beta.shape != (data.d,):
        raise DataError(f"init must have length {data.d}")
    kernel = _Kernel(data, scheme, ties, event_multipliers)
    theta = model_params(kernel.scheme.model) if kernel.scheme is not scheme else None

    U, J = kernel.score(beta)
    norm = float(np.abs(U).max())
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        if norm < _TOL:
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
            U_new, J_new = kernel.score(cand)
            new_norm = float(np.abs(U_new).max())
            if np.isfinite(new_norm) and new_norm < norm:
                break
            scale *= 0.5
        else:
            raise ConvergenceError("step halving failed to reduce the score")
        beta, U, J, norm = cand, U_new, J_new, new_norm
    converged = norm < _TOL
    if not converged:
        raise ConvergenceError(
            f"no convergence after {_MAX_ITER} iterations (|U| = {norm:.3g})"
        )

    if variance == "none":
        var = np.full((data.d, data.d), np.nan)
    elif variance == "andersen-gill" or (
        variance == "auto" and isinstance(scheme, Constant)
    ):
        var = kernel.andersen_gill(beta)
    else:
        var = kernel.sandwich(beta)
    se = np.sqrt(np.clip(np.diag(var), 0.0, None))
    return FitResult(
        beta=beta,
        variance=var,
        std_errors=se,
        iterations=iterations,
        converged=bool(converged),
        final_score_norm=norm,
        scheme=kernel.scheme.describe(),
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
