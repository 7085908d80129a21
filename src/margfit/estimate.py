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

The three take one path: ``_marginal`` fits a scheme's marginal (none at
W = 1) and ``_weights`` turns it into W.

Scores, Jacobians, variances and the log partial likelihood evaluate
through one prepared state, ``_Kernel``, built once per (data, ties): the
event rows, each failure's risk-set start, the risk-set index of
``dataset._risk_set_index`` and the Efron tie layout. Only the sums of
``dataset._risk_set_sums`` over that index depend on beta. The weights are
the caller's: B rows of W at the m failures, which ``_scheme_rows`` builds
from S schemes (S = 1 for a public call, one per estimator in a study
replication) and random weights scale by each draw's multipliers; a kernel
evaluates them at B betas in one pass over the risk sets. Efron ties
(Efron 1977) are Breslow at adjusted sums: the l-th of d_k failures tied
at a time sees S_r - (l/d_k) D_r, D_r the tie group's own sums.

Solving is Newton-Raphson with step halving from zero, in one loop,
``_newton``, that iterates B scores together, each row as it would be
alone; ``_fit`` solves a list of scheme rows in one such call, and
``solve_score`` is its one-scheme case. Every fit's variance is the
model-based sandwich A^{-1} B A^{-1} with its scheme's own weights, A =
sum W V and B = sum W^2 V, under the fit's tie rule (not robust to
non-proportional hazards). At W = 1, A = B is the information and the
sandwich is the Andersen-Gill information inverse; ``variance_sandwich``
gives it at any beta, for any scheme and tie rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .dataset import SurvivalDataset, _risk_set_index, _risk_set_sums
from .errors import ConfigError, ConvergenceError, DataError, FitError
from .marginal import (
    _FAMILY_NAMES,
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

    ``model`` is a marginal model (any object with ``survival(t)``), used as
    given, or a family name as ``parse_family`` reads it, fitted to whatever
    dataset the scheme is solved on (so refit per bootstrap draw).
    """

    model: MarginalModel | str

    def __post_init__(self) -> None:
        if isinstance(self.model, str):
            parse_family(self.model)
        elif not callable(getattr(self.model, "survival", None)):
            raise ConfigError(f"not a family name or a marginal model: {self.model!r}")

    def describe(self) -> str:
        if isinstance(self.model, str):
            return f"parametric:{parse_family(self.model)[0]}"
        return f"parametric:{type(self.model).__name__.lower()}"


WeightScheme = Union[Constant, KaplanMeier, Parametric]


# the scheme strings _parse_scheme reads, as its error and the CLI's help spell them
_SCHEMES = f"pl | km | par:FAMILY | curve:FILE, FAMILY one of {_FAMILY_NAMES}"


def _parse_scheme(spec: str) -> WeightScheme:
    """A scheme string, one of ``_SCHEMES`` -> WeightScheme.

    The package's one scheme grammar, read by the CLI and by the study
    runner's estimator names. ``par:FAMILY`` names a parametric family that
    is fitted to the data the scheme is solved on; ``curve:FILE`` supplies
    an external survival curve as given.
    """
    if spec == "pl":
        return Constant()
    if spec == "km":
        return KaplanMeier()
    if spec.startswith("par:"):
        return Parametric(spec[len("par:") :])
    if spec.startswith("curve:"):
        return Parametric(load_external_curve(spec[len("curve:") :]))
    raise ConfigError(f"unknown scheme {spec!r}; expected {_SCHEMES}")


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
    _, marginal, _ = _marginal(data, scheme)
    first = np.searchsorted(data.time, data.time, side="left")
    return _weights(marginal, data.time, data.n - first)


def _marginal(data: SurvivalDataset, scheme: WeightScheme):
    """(scheme as fitted, the marginal its W divides by, theta): the one
    place a scheme's marginal is fitted. The constant scheme has none (W =
    1); a family-named marginal is fitted to ``data`` and theta holds its
    parameters (else None)."""
    if isinstance(scheme, Constant):
        return scheme, None, None
    if isinstance(scheme, KaplanMeier):
        return scheme, kaplan_meier(data), None
    if not isinstance(scheme, Parametric):
        raise ConfigError(f"unknown weight scheme {scheme!r}")
    if isinstance(scheme.model, str):
        model = fit_family(data, scheme.model)
        return Parametric(model), model, model_params(model)
    return scheme, scheme.model, None


def _weights(marginal, times, at_risk) -> np.ndarray:
    """W at ``times``, whose risk sets hold ``at_risk`` subjects: 1 without a
    marginal, else the marginal's survival over the at-risk count."""
    if marginal is None:
        return np.ones(times.size)
    return np.asarray(marginal.survival(times), dtype=float) / at_risk.astype(float)


class _Kernel:
    """The beta-free state of a dataset's scores, evaluated at any beta.

    It holds the data's side of the score only: the event rows ``ev``,
    each failure's risk-set start ``first``, the risk-set ``index`` that
    ``_risk_set_sums`` reads at every beta, and under Efron each failure's
    l/d_k (``frac``) and tie group. The weights are the caller's: ``score``
    and ``sandwich`` take rows of W at the m failures, which
    ``_scheme_rows`` builds from weight schemes and a resampler scales by
    its multipliers.
    """

    def __init__(self, data, ties="breslow"):
        data.require_events()
        if ties not in ("breslow", "efron"):
            raise ConfigError(f"ties must be 'breslow' or 'efron', got {ties!r}")
        self.data = data
        self.ties = ties
        self.ev = np.flatnonzero(data.status == 1)
        self.z = data.covariates[self.ev]
        self.first = np.searchsorted(data.time, data.time[self.ev], side="left")
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

    def score(self, beta, w):
        """(U, J, V): the weighted scores, their Jacobians and the risk-set V.

        ``w`` (B, m) holds B rows of W at the failures; row k of ``beta``
        (k, d) goes with row k of ``w``, and a single row of ``beta`` serves
        every row. U is (B, d), J (B, d, d) and V (k, m, d, d).
        """
        _, e, v = self.moments(beta)
        # C order keeps each row's event sum as it is for that row alone
        U = np.ascontiguousarray(w[..., None] * (self.z - e)).sum(axis=1)
        J = -np.ascontiguousarray(w[..., None, None] * v).sum(axis=1)
        return U, J, v

    def log_likelihood(self, beta) -> float:
        s0 = self.moments(beta[None])[0][0]
        return float((self.z @ beta).sum() - np.log(s0 / self.data.n).sum())

    def sandwich(self, v, w) -> np.ndarray:
        """A^{-1} B A^{-1} with one row ``w`` (m,) of W, from V at its beta:
        A = sum W V, B = sum W^2 V, so at W = 1 the information inverse.
        With one covariate A^{-1} is the division 1/A, equal to LAPACK's 1x1
        inverse bit for bit; A = 0 is singular either way."""
        a = (w[:, None, None] * v).sum(axis=0)
        b = ((w**2)[:, None, None] * v).sum(axis=0)
        try:
            a_inv = np.linalg.inv(a) if len(a) > 1 else np.array([[1.0 / a.item()]])
        except (np.linalg.LinAlgError, ZeroDivisionError):
            raise FitError("singular information matrix") from None
        return a_inv @ b @ a_inv


def _scheme_rows(kernel: _Kernel, schemes) -> list:
    """Each scheme's (fitted scheme, theta, W at ``kernel``'s failures), or
    the ``FitError``/``DataError`` its marginal fit raised. A scheme's
    marginal is fitted once, by ``_marginal``. Under Efron too, W divides by
    the tie group's full at-risk count, so that without censoring KM is PL."""
    data = kernel.data
    times, at_risk = data.time[kernel.ev], data.n - kernel.first
    rows = []
    for scheme in schemes:
        try:
            fitted, marginal, theta = _marginal(data, scheme)
        except (FitError, DataError) as exc:
            rows.append(exc)
            continue
        rows.append((fitted, theta, _weights(marginal, times, at_risk)))
    return rows


def _alone(kernel, scheme):
    """``kernel`` and ``scheme``'s ``_scheme_rows`` entry at it; raises its error."""
    (row,) = _scheme_rows(kernel, [scheme])
    if isinstance(row, Exception):
        raise row
    return kernel, row


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
    kernel, (_, _, w) = _alone(_Kernel(data, ties), scheme)
    return kernel.score(_beta(beta, data.d)[None], w[None])[0][0]


def score_jacobian(
    data: SurvivalDataset,
    scheme: WeightScheme,
    beta,
    *,
    ties: str = "breslow",
) -> np.ndarray:
    """dU_W/dbeta = -sum delta_i W(X_i) V(beta, X_i); negative semidefinite."""
    kernel, (_, _, w) = _alone(_Kernel(data, ties), scheme)
    return kernel.score(_beta(beta, data.d)[None], w[None])[1][0]


def log_partial_likelihood(
    data: SurvivalDataset, beta, *, ties: str = "breslow"
) -> float:
    """l(beta) = sum delta_i [beta'Z_i - log S0(beta, X_i)].

    The Breslow form; with ties='efron' each tied failure's S0 is the
    Efron-adjusted sum. Its gradient is the constant-weight score.
    """
    return _Kernel(data, ties).log_likelihood(_beta(beta, data.d))


def variance_sandwich(
    data: SurvivalDataset, scheme: WeightScheme, beta, *, ties: str = "breslow"
) -> np.ndarray:
    """Model-based sandwich variance A^{-1} B A^{-1} / n of a weighted score.

    A = n^{-1} sum delta_i W V, B = n^{-1} sum delta_i W^2 V, under ``ties``.
    Invariant to rescaling the weights; at W = 1 it is the Andersen-Gill
    information inverse. B sums the model's risk-set variance, not score
    residuals, so it is not robust to non-proportional hazards (for the
    Lin-Wei variance that is, see ROADMAP.md item 8).
    """
    kernel, (_, _, w) = _alone(_Kernel(data, ties), scheme)
    return kernel.sandwich(kernel.moments(_beta(beta, data.d)[None])[2][0], w)


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
        Either tie rule, for every scheme.
    variance : {'auto', 'none'}
        'auto' gives every scheme the sandwich with its own weights under
        ``ties``, which at W = 1 is the Andersen-Gill variance; 'none' skips
        the variance (NaN). ``variance_sandwich`` evaluates it at any beta.

    Newton stops once the max-norm of the score is below 1e-9; the budget
    is 50 iterations, each allowing up to 20 step halvings. Both are fixed.
    A second rule stops a row whose halvings all fail to lower |U| (the
    score's rounding noise at the root grows with n, so partial likelihood
    at large n cannot reach 1e-9): it has converged at its current beta if
    its Jacobian is finite and its Newton step is at the rounding floor,
    max|step| <= 1e-10 max(1, max|beta|). Such a fit reports a
    ``final_score_norm`` that may be 1e-9 or more. With one covariate each
    Newton step -U/J and the variance's inverse 1/A are divisions, equal
    bit for bit to LAPACK's 1x1 solve and inverse.
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
        Singular Jacobian or information matrix (collinear or degenerate
        covariates), or a marginal family that cannot be fitted.
    ConvergenceError
        No convergence within 50 iterations, or no step halving lowers |U|.
    """
    if variance not in ("auto", "none"):
        raise ConfigError(f"unknown variance rule {variance!r}")
    kernel = _Kernel(data, ties)
    return _solved(kernel, _scheme_rows(kernel, [scheme]), variance)


def _newton(kernel: _Kernel, w):
    """Roots of ``kernel``'s scores at the B rows ``w`` of W, each from zero.

    The rows are solved together, each with its own steps, halvings,
    iteration count and stopping point, and the arithmetic it has alone.
    A record of B rows holds each row's last accepted beta, U, J, |U|, the
    risk-set V there and the iteration that accepted it (0 at zero), all
    written by each accepted trial; a step's trying rows carry their own
    step, beta and |U|. A one-covariate step is the division -U/J, equal to
    LAPACK's 1x1 solve. Returns (beta (B, d), iterations (B,), |U| (B,), V,
    errors): V (B, m, d, d) holds the risk-set V at each root, from the
    evaluation that accepted it; ``errors[b]`` is None or the ``FitError``
    that stopped row b (its root, |U| and V then NaN, its iterations 0).
    """
    U, J, v = kernel.score(np.zeros((1, kernel.data.d)), w)
    size, d = U.shape
    beta, norm = np.zeros((size, d)), np.abs(U).max(axis=1)
    iterations, errors = np.zeros(size, dtype=int), [None] * size
    vs = np.repeat(v, size, axis=0)
    live = (~(norm < _TOL)).nonzero()[0]  # a NaN |U| stays live, and fails
    for it in range(1, _MAX_ITER + 1):
        if not live.size:
            break
        step, solved = _solve_rows(J.take(live, axis=0), U.take(live, axis=0))
        for r in live[~solved]:
            errors[r] = FitError("singular Jacobian: separation or degenerate covariates")
        rows = live = live[solved]
        if not rows.size:
            break
        step, base, now = step[solved], beta.take(rows, axis=0), norm[rows]
        # the full step, then up to 20 halvings alike for the rows whose |U| did
        # not fall. A trial may overflow exp(beta z); its |U| is then inf or NaN,
        # never below the current |U|, and only the trial scores can warn here
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for halvings in range(21):
                b = base + 0.5**halvings * step
                u, j, vb = kernel.score(b, w.take(rows, axis=0))
                n = np.abs(u).max(axis=1)
                took = n < now
                accepted = np.count_nonzero(took)
                if accepted == rows.size:
                    if rows.size == size:  # the trial is the whole record
                        beta, U, J, norm, vs = b, u, j, n, vb
                    else:
                        beta[rows], U[rows], J[rows], norm[rows], vs[rows] = b, u, j, n, vb
                    iterations[rows] = it
                    break
                if accepted:  # record the accepted rows; the rest try on
                    r, b, u, j, n, vb = rows[took], b[took], u[took], j[took], n[took], vb[took]
                    beta[r], U[r], J[r], norm[r], vs[r], iterations[r] = b, u, j, n, vb, it
                    rows, base, step, now = rows[~took], base[~took], step[~took], now[~took]
            else:
                # a row no halving improves has converged at its recorded beta if its
                # finite J gives a step at the rounding floor. An overflowed J (inf)
                # gives a zero step far from the root, and fails
                floor = 1e-10 * np.maximum(1.0, np.abs(base).max(axis=1))
                stop = np.isfinite(J[rows]).all(axis=(1, 2)) & (np.abs(step).max(axis=1) <= floor)
                for r in rows[~stop]:
                    errors[r] = ConvergenceError("step halving failed to reduce the score")
        live = ((iterations == it) & (norm >= _TOL)).nonzero()[0]  # accepted, not done
    for r in live:
        errors[r] = ConvergenceError(
            f"no convergence after {_MAX_ITER} iterations (|U| = {norm[r]:.3g})"
        )
    if failed := [r for r, error in enumerate(errors) if error is not None]:
        beta[failed], norm[failed], vs[failed], iterations[failed] = np.nan, np.nan, np.nan, 0
    return beta, iterations, norm, vs, errors


def _solve_rows(J, U):
    """(step, solved): the Newton steps -J^{-1} U of a stack of rows, and
    which rows were solved; an unsolved row's step is NaN. With one
    covariate the step is the division -U/J where J != 0: LAPACK's 1x1
    solve bit for bit, which warns of nothing, leaves J = +-0 unsolved and
    solves a NaN J to NaN. Otherwise one singular J fails the stacked
    solve, so the rows are then solved one at a time and only the singular
    ones fail."""
    if U.shape[1] == 1:
        solved = J[:, 0, 0] != 0
        with np.errstate(over="ignore", invalid="ignore"):
            return -U / np.where(solved, J[:, 0, 0], np.nan)[:, None], solved
    try:
        return np.linalg.solve(J, -U[..., None])[..., 0], np.ones(len(U), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    step = np.full(U.shape, np.nan)
    solved = np.ones(len(U), dtype=bool)
    for r in range(len(U)):
        try:
            step[r] = np.linalg.solve(J[r], -U[r])
        except np.linalg.LinAlgError:
            solved[r] = False
    return step, solved


def _fit(kernel: _Kernel, rows, variance: str = "auto") -> list:
    """Fit the ``_scheme_rows`` entries ``rows`` in one batched Newton from zero.

    Returns one entry per row: its ``FitResult``, or the ``FitError`` or
    ``DataError`` that solving it alone raises (its marginal fit's, its
    Newton row's or its variance's). Under ``variance='auto'`` every row
    takes the sandwich with its own weights (Andersen-Gill at W = 1);
    ``'none'`` leaves it NaN.
    """
    out = list(rows)
    live = [s for s, r in enumerate(rows) if not isinstance(r, Exception)]
    w = np.array([rows[s][2] for s in live]).reshape(len(live), kernel.ev.size)
    roots, iterations, norms, vs, errors = _newton(kernel, w)
    d = kernel.data.d
    for row, s in enumerate(live):
        scheme, theta, _ = rows[s]
        if errors[row] is not None:
            out[s] = errors[row]
            continue
        try:
            if variance == "none":
                var = np.full((d, d), np.nan)
            else:
                var = kernel.sandwich(vs[row], w[row])
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
            theta=theta,
        )
    return out


def _solved(kernel: _Kernel, rows, variance: str = "auto") -> FitResult:
    """The fit of the one entry of ``rows``; raises the error it ends with."""
    (fit,) = _fit(kernel, rows, variance)
    if isinstance(fit, Exception):
        raise fit
    return fit
