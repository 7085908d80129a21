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
  survival model, supplied (a parametric model or a ``StepSurvival`` curve)
  or, given as a family name, fitted to the data the score is solved on.

Scores, Jacobians, variances and the log partial likelihood evaluate
through one prepared state, ``_Kernel``, built once per (data, ties): the
event rows, each failure's risk-set start and at-risk count, the risk-set
index of ``dataset._risk_set_index`` (each failure's position in the
time-reversed sums, the reversed covariates and their outer products) and
the Efron tie layout, shared by the weights of S schemes (S = 1 for a
public call, one per estimator in a study replication). Only the sums of
``dataset._risk_set_sums`` over that index depend on beta. A kernel holds
B rows of score weights (its schemes, or, once ``_Kernel.reweighted`` has
scaled one scheme's terms by resampling multipliers at the failures, its
draws) and evaluates them at B betas in one pass over the risk sets. Efron
ties (Efron 1977) are Breslow at adjusted sums: the l-th of d_k failures
tied at a time sees S_r - (l/d_k) D_r, D_r the tie group's own sums.

Solving is Newton-Raphson with step halving from zero, in one loop,
``_newton``, that iterates B scores together, each row as it would be
alone; ``_fit`` solves a kernel's schemes in one such call and returns
each scheme's result or error, and ``solve_score`` is its one-scheme case.
A fit's variance is Andersen-Gill (information inverse, under the fit's
tie rule) for the constant weights and the robust sandwich A^{-1} B A^{-1}
with a scheme's own weights for weighted schemes; the standalone
``variance_andersen_gill`` and ``variance_sandwich`` give them at any beta.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .dataset import SurvivalDataset, _risk_set_index, _risk_set_sums
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


def event_weights(data: SurvivalDataset, scheme: WeightScheme) -> np.ndarray:
    """Per-subject weight W(X_i), meaningful at event rows.

    For the Kaplan-Meier and parametric schemes, ``n S0(0, t)`` is the
    at-risk count, and the marginal survival is evaluated left-continuously
    for step models, so the weight at an event time uses the survival value
    just before that event.
    """
    first = np.searchsorted(data.time, data.time, side="left")
    return _weights(data, _fit_marginal(data, scheme), data.time, data.n - first)


def _weights(data, scheme, times, at_risk) -> np.ndarray:
    """W at ``times``, whose risk sets hold ``at_risk`` subjects; marginal fitted."""
    if isinstance(scheme, Constant):
        return np.ones(times.size)
    if isinstance(scheme, KaplanMeier):
        marginal = kaplan_meier(data)
    elif isinstance(scheme, Parametric):
        marginal = scheme.model
    else:
        raise ConfigError(f"unknown weight scheme {scheme!r}")
    return np.asarray(marginal.survival(times), dtype=float) / at_risk.astype(float)


def _fit_marginal(data: SurvivalDataset, scheme: WeightScheme) -> WeightScheme:
    """The scheme with a family-named marginal fitted to ``data``; else as is."""
    if isinstance(scheme, Parametric) and isinstance(scheme.model, str):
        return Parametric(fit_family(data, scheme.model))
    return scheme


class _Kernel:
    """The beta-free state of a dataset's weighted scores, evaluated at any beta.

    One state serves S weight schemes: the event rows ``ev``, each
    failure's risk-set start ``first`` and at-risk count, the risk-set
    ``index`` that ``_risk_set_sums`` reads at every beta, and under Efron
    each failure's l/d_k (``frac``) and tie group. ``weights`` (S', m) holds
    W at the m failures, one row per scheme; a scheme whose marginal family
    cannot be fitted has no row, and ``errors[s]`` holds what the fit
    raised. ``live`` maps the rows to their schemes. ``score_weights``
    (B, m) holds the rows the scores use: ``weights`` itself, or, in a copy
    made by ``reweighted``, one scheme's W times each of B rows of
    multipliers at the failures, so resampling draws share one kernel.
    """

    def __init__(self, data, schemes, ties="breslow"):
        data.require_events()
        if ties not in ("breslow", "efron"):
            raise ConfigError(f"ties must be 'breslow' or 'efron', got {ties!r}")
        if ties == "efron" and not all(isinstance(s, Constant) for s in schemes):
            raise ConfigError("the Efron tie correction applies to constant weights only")
        self.data = data
        self.ties = ties
        self.ev = np.flatnonzero(data.status == 1)
        self.z = data.covariates[self.ev]
        self.first = np.searchsorted(data.time, data.time[self.ev], side="left")
        at_risk = data.n - self.first
        self.index = _risk_set_index(data.covariates, self.first)
        self.frac = None
        if ties == "efron":
            _, self.starts, sizes = np.unique(
                data.time[self.ev], return_index=True, return_counts=True
            )
            self.group = np.repeat(np.arange(sizes.size), sizes)
            rank = np.arange(self.ev.size) - self.starts[self.group]
            self.frac = rank / sizes[self.group]
            self.zz = self.z[:, :, None] * self.z[:, None, :]
        self.schemes, self.thetas, self.errors, weights = [], [], [], []
        # every check runs before the marginal fits, whose failure would hide it
        for scheme in schemes:
            try:
                fitted = _fit_marginal(data, scheme)
            except (FitError, DataError) as exc:
                self.schemes.append(scheme)
                self.thetas.append(None)
                self.errors.append(exc)
                continue
            self.schemes.append(fitted)
            self.thetas.append(model_params(fitted.model) if fitted is not scheme else None)
            self.errors.append(None)
            weights.append(_weights(data, fitted, data.time[self.ev], at_risk))
        self.live = [s for s, err in enumerate(self.errors) if err is None]
        self.weights = np.array(weights).reshape(len(weights), self.ev.size)
        self.score_weights = self.weights

    @classmethod
    def single(cls, data, scheme, ties="breslow") -> "_Kernel":
        """The kernel of ``scheme`` alone; raises what its scheme raised."""
        kernel = cls(data, [scheme], ties)
        if kernel.errors[0] is not None:
            raise kernel.errors[0]
        return kernel

    def reweighted(self, event_multipliers) -> "_Kernel":
        """This one-scheme kernel with its score terms scaled, once per row.

        ``event_multipliers`` is (B, m), one row of multipliers at the m
        failures per draw; under Efron a row must be equal within each tie
        group, which random weights meet by refusing tied failures.
        """
        w = self.weights * np.asarray(event_multipliers, dtype=float)
        kernel = copy.copy(self)
        kernel.score_weights = w
        return kernel

    def moments(self, beta):
        """S0, the tilted mean E and variance V of each failure's risk set.

        ``beta`` is (k, d), one row per beta; the results carry k first.
        """
        z = self.data.covariates
        # a stacked matmul runs the matrix-vector product a single beta gets
        # once per row (beta @ z.T would round differently); with one
        # covariate each entry is one rounded product, and the outer product
        # gives those bits without a BLAS call per row
        if z.shape[1] == 1:
            w = np.exp(beta * z[:, 0])
        else:
            w = np.exp((z @ beta[:, :, None])[..., 0])
        s0, s1, s2 = _risk_set_sums(self.index, w)
        if self.frac is not None:
            f, we = self.frac, w.take(self.ev, axis=1)

            def tied(x):  # D_r: the sum of x over each failure's tie group
                return np.add.reduceat(x, self.starts, axis=1).take(self.group, axis=1)

            s0 = s0 - f * tied(we)
            s1 = s1 - f[:, None] * tied(we[..., None] * self.z)
            s2 = s2 - f[:, None, None] * tied(we[..., None, None] * self.zz)
        e = s1 / s0[..., None]
        v = s2 / s0[..., None, None] - e[..., :, None] * e[..., None, :]
        return s0, e, v

    def score(self, beta, rows=slice(None)):
        """(U, J, V): the weighted scores, their Jacobians and the risk-set V.

        Row k of ``beta`` (k, d) goes with score-weight row ``rows[k]``; a
        single row of ``beta`` serves every selected row. U is (B, d), J
        (B, d, d) and V (k, m, d, d).
        """
        _, e, v = self.moments(beta)
        w = self.score_weights[rows]
        # C order keeps each row's event sum as it is for that row alone
        U = np.ascontiguousarray(w[..., None] * (self.z - e)).sum(axis=1)
        J = -np.ascontiguousarray(w[..., None, None] * v).sum(axis=1)
        return U, J, v

    def log_likelihood(self, beta) -> float:
        s0 = self.moments(beta[None])[0][0]
        return float((self.z @ beta).sum() - np.log(s0 / self.data.n).sum())

    def andersen_gill(self, v) -> np.ndarray:
        """Information inverse, (sum_events V)^{-1}, from one row of ``moments``' V."""
        try:
            return np.linalg.inv(v.sum(axis=0))
        except np.linalg.LinAlgError:
            raise FitError("singular information matrix") from None

    def sandwich(self, v, row=0) -> np.ndarray:
        """A^{-1} B A^{-1} with the weights of scheme row ``row``, from its V."""
        w = self.weights[row]
        a = (w[:, None, None] * v).sum(axis=0)
        b = ((w**2)[:, None, None] * v).sum(axis=0)
        try:
            a_inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            raise FitError("singular sandwich A matrix") from None
        return a_inv @ b @ a_inv


def _beta(beta, d: int) -> np.ndarray:
    """``beta`` as a float vector of length ``d``."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape != (d,):
        raise DataError(f"beta must have length {d}")
    return beta


def weighted_score(
    data: SurvivalDataset,
    scheme: WeightScheme,
    beta,
    *,
    ties: str = "breslow",
) -> np.ndarray:
    """The weighted score U_W(beta) = sum delta_i W(X_i){Z_i - E(beta, X_i)}."""
    kernel = _Kernel.single(data, scheme, ties)
    return kernel.score(_beta(beta, data.d)[None])[0][0]


def score_jacobian(
    data: SurvivalDataset,
    scheme: WeightScheme,
    beta,
    *,
    ties: str = "breslow",
) -> np.ndarray:
    """dU_W/dbeta = -sum delta_i W(X_i) V(beta, X_i); negative semidefinite."""
    kernel = _Kernel.single(data, scheme, ties)
    return kernel.score(_beta(beta, data.d)[None])[1][0]


def log_partial_likelihood(
    data: SurvivalDataset, beta, *, ties: str = "breslow"
) -> float:
    """l(beta) = sum delta_i [beta'Z_i - log S0(beta, X_i)].

    The Breslow form; with ties='efron' each tied failure's S0 is the
    Efron-adjusted sum. Its gradient is the constant-weight score.
    """
    return _Kernel.single(data, Constant(), ties).log_likelihood(_beta(beta, data.d))


def variance_andersen_gill(
    data: SurvivalDataset, beta, *, ties: str = "breslow"
) -> np.ndarray:
    """Information-inverse variance of the partial-likelihood estimator.

    With I = n^{-1} sum delta_i V(beta, X_i), returns I^{-1}/n, i.e. the
    variance on the coefficient scale.
    """
    kernel = _Kernel.single(data, Constant(), ties)
    return kernel.andersen_gill(kernel.moments(_beta(beta, data.d)[None])[2][0])


def variance_sandwich(
    data: SurvivalDataset, scheme: WeightScheme, beta
) -> np.ndarray:
    """Robust variance A^{-1} B A^{-1} / n for weighted estimating equations.

    A = n^{-1} sum delta_i W V, B = n^{-1} sum delta_i W^2 V, with Breslow
    ties. Invariant to rescaling the weights; equals the Andersen-Gill
    variance when W = 1.
    """
    kernel = _Kernel.single(data, scheme)
    return kernel.sandwich(kernel.moments(_beta(beta, data.d)[None])[2][0])


def solve_score(
    data: SurvivalDataset,
    scheme: WeightScheme,
    *,
    ties: str = "breslow",
    variance: str = "auto",
) -> FitResult:
    """Solve U_W(beta) = 0 by Newton-Raphson with step halving from zero.

    Parameters
    ----------
    data : SurvivalDataset
    scheme : WeightScheme
    ties : {'breslow', 'efron'}
        Efron is available for the constant scheme only.
    variance : {'auto', 'none'}
        'auto' gives constant weights the Andersen-Gill variance under
        ``ties`` and weighted schemes the sandwich; 'none' skips the
        variance (NaN). ``variance_andersen_gill`` and ``variance_sandwich``
        evaluate either at any beta.

    Newton stops once the max-norm of the score is below 1e-9; the budget
    is 50 iterations, each allowing up to 20 step halvings. Both are fixed.
    Every check of the arguments runs before any marginal is fitted.

    The beta-free state is built once: a Kaplan-Meier curve or a
    family-named parametric marginal is fitted to ``data`` once, before
    the first Newton step, and serves every step and the variance; a
    fitted family's parameters are recorded in ``theta``. This Newton loop
    is the package's only one, and it takes a batch of scores over one
    shared beta-free state: a fit is a batch of one, a study replication
    solves its estimators as one batch (one scheme per row) and
    random-weight resampling solves blocks of draws (one draw's
    multipliers per row). Each row gets the root, variance and failure it
    would have alone.

    Raises
    ------
    FitError
        Singular Jacobian (collinear or degenerate covariates), or a
        marginal family that cannot be fitted.
    ConvergenceError
        No convergence within 50 iterations.
    """
    if variance not in ("auto", "none"):
        raise ConfigError(f"unknown variance rule {variance!r}")
    return _solved(_Kernel.single(data, scheme, ties), variance)


def _newton(kernel: _Kernel):
    """Roots of ``kernel``'s B scores by Newton-Raphson, every row from zero.

    The rows are solved together, each with its own steps, step halvings,
    iteration count and stopping point; a row's arithmetic is what it would
    be alone. One state of B rows (beta, U, J, |U|) is updated in place;
    ``live`` lists the rows still iterating. Returns (beta (B, d),
    iterations (B,), |U| (B,), V, errors): V (B, m, d, d) holds the
    risk-set variances at each root, kept from the evaluation that
    converged, which lets the variance skip a pass, and ``errors[b]`` is
    None or the ``FitError`` that stopped row b (whose root, |U| and V are
    then NaN and its iterations 0).
    """
    U, J, v = kernel.score(np.zeros((1, kernel.data.d)))
    size, d = U.shape
    beta, norm = np.zeros((size, d)), np.abs(U).max(axis=1)
    root, norms = np.full((size, d), np.nan), np.full(size, np.nan)
    iterations, errors = np.zeros(size, dtype=int), [None] * size
    vs = np.full((size,) + v.shape[1:], np.nan)
    # a row is recorded when its |U| first falls below _TOL, with the V of
    # that evaluation: no other V is kept
    done = norm < _TOL
    root[done], norms[done], vs[done] = beta[done], norm[done], v[0]
    live = np.flatnonzero(~done)
    for it in range(1, _MAX_ITER + 1):
        if not live.size:
            break
        try:
            step = np.linalg.solve(J[live], -U[live, :, None])[..., 0]
        except np.linalg.LinAlgError:
            # one singular J fails the whole stack; only its own row may fail
            step, solved = _solve_rows(J[live], U[live])
            for r in live[~solved]:
                errors[r] = FitError(
                    "singular Jacobian: separation or degenerate covariates"
                )
            live, step = live[solved], step[solved]
        # the full step, then up to 20 halvings for the rows whose |U| did not
        # fall, all halved alike, so they share a scale. A trial beta may
        # overflow exp(beta z); its |U| is then inf or NaN, never below the
        # current |U|, so the trials' floating-point warnings are silenced.
        # ``trying`` holds the positions in ``live`` not yet accepted
        trying = np.arange(live.size)
        for halvings in range(21):
            if not trying.size:
                break
            rows = live[trying]
            b = beta[rows] + 0.5**halvings * step[trying]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                u, j, vb = kernel.score(b, rows)
            n = np.abs(u).max(axis=1)
            took = n < norm[rows]
            r = rows[took]
            beta[r], U[r], J[r], norm[r] = b[took], u[took], j[took], n[took]
            hit = n < _TOL
            if np.count_nonzero(hit):
                c = rows[hit]
                root[c], norms[c], vs[c], iterations[c] = b[hit], n[hit], vb[hit], it
            trying = trying[~took]
        for r in live[trying]:
            errors[r] = ConvergenceError("step halving failed to reduce the score")
        keep = norm[live] >= _TOL
        keep[trying] = False
        live = live[keep]
    for r in live:
        errors[r] = ConvergenceError(
            f"no convergence after {_MAX_ITER} iterations (|U| = {norm[r]:.3g})"
        )
    return root, iterations, norms, vs, errors


def _solve_rows(J, U):
    """(step, solved): Newton steps one row at a time; unsolved where J is singular."""
    step = np.full(U.shape, np.nan)
    solved = np.ones(len(U), dtype=bool)
    for r in range(len(U)):
        try:
            step[r] = np.linalg.solve(J[r], -U[r])
        except np.linalg.LinAlgError:
            solved[r] = False
    return step, solved


def _fit(kernel: _Kernel, variance: str = "auto") -> list:
    """Fit every scheme of ``kernel`` in one batched Newton from zero.

    Returns one entry per scheme: its ``FitResult``, or the ``FitError`` or
    ``DataError`` that solving it alone raises (its marginal fit's, its
    Newton row's or its variance's). Under ``variance='auto'`` the constant
    scheme takes the Andersen-Gill variance and a weighted one the sandwich
    with its own weights; ``'none'`` leaves it NaN. Needs a fitted scheme and
    one score row per row of weights.
    """
    out = list(kernel.errors)
    roots, iterations, norms, vs, errors = _newton(kernel)
    d = kernel.data.d
    for row, s in enumerate(kernel.live):
        scheme = kernel.schemes[s]
        if errors[row] is not None:
            out[s] = errors[row]
            continue
        try:
            if variance == "none":
                var = np.full((d, d), np.nan)
            elif isinstance(scheme, Constant):
                var = kernel.andersen_gill(vs[row])
            else:
                var = kernel.sandwich(vs[row], row)
        except FitError as exc:
            out[s] = exc
            continue
        out[s] = FitResult(
            beta=roots[row],
            variance=var,
            std_errors=np.sqrt(np.clip(np.diag(var), 0.0, None)),
            iterations=int(iterations[row]),
            converged=True,
            final_score_norm=float(norms[row]),
            scheme=scheme.describe(),
            ties=kernel.ties,
            n=kernel.data.n,
            n_events=kernel.data.n_events,
            theta=kernel.thetas[s],
        )
    return out


def _solved(kernel: _Kernel, variance: str = "auto") -> FitResult:
    """The fit of a one-scheme ``kernel``; raises the error it ends with."""
    (fit,) = _fit(kernel, variance)
    if isinstance(fit, Exception):
        raise fit
    return fit
