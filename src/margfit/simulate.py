"""Data generation, censoring calibration, study runner, and population oracles.

Subjects follow the relative-risk model lambda(t|z) = lambda0(t) exp{beta(t) z}
with a piecewise-constant coefficient path beta(t). The baseline model can
play either of two roles:

* ``baseline_role='hazard'``: the model's hazard is lambda0 literally.
* ``baseline_role='marginal'``: the model is the *marginal* law of T, and
  lambda0 is calibrated implicitly so that E_Z[ exp(-Lambda(t|Z)) ] matches
  the model's survival at every t. With a constant beta this yields exactly
  the stated marginal (e.g. "T follows an exponential distribution"), which
  is the reading the reference tables require.

Sampling is exact in both roles: conditional on z, draw V ~ Exp(1), locate
the coefficient segment whose cumulative-hazard interval contains V, and
invert segment-wise (closed form for the hazard role; via the marginal
mixture g_k(M) = E_Z[exp(-H_k(Z) - M e^{b_k Z})] for the marginal role).
All V are drawn first; the search and the inversion then run over blocks
of a fixed number of subjects, so beyond V and T a draw holds one block's
temporaries. Where b_k = 0 every tilt e^{b_k z} is 1, so the marginal role
takes log g_k(M) = c_k - M, with c_k = log E_Z[exp(-H_k(Z))] one number per
segment. Elsewhere it evaluates log g_k over the covariate law's atoms,
which a block holds on its leading axis: each step of the log-sum-exp is
one elementwise pass over the block's subjects. Its arithmetic (and that of
each c_k) is that of SciPy's ``logsumexp``, with the sum over atoms added
in the order NumPy's row sum takes, so its bits are SciPy's.

Calibration bisects over one Monte Carlo draw and checks its parameter by
the exact censored fraction; the reference E[beta(T)] is a Monte Carlo draw;
the population oracle is deterministic quadrature on the sampler's segment
tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from typing import Union

import numpy as np

from ._parallel import check_integer, check_jobs, parallel_map
from .dataset import SurvivalDataset, _write_table
from .errors import ConfigError, DataError, FitError
from .estimate import FitResult, _fit, _Kernel, _parse_scheme, _scheme_rows
from .marginal import (
    _FAMILIES,
    Exponential,
    PiecewiseExponential,
    Weibull,
    _brentq,
    _expand,
    _fields_doc,
    _name_of,
    _plain,
    _positive_ascending,
    model_params,
    parse_family,
)

__all__ = [
    "BetaFunction",
    "Uniform01",
    "Bernoulli",
    "NoCensoring",
    "UniformCensoring",
    "ExponentialCensoring",
    "GeneratorSpec",
    "StudyConfig",
    "SimStudyResult",
    "generate_dataset",
    "calibrate_censoring",
    "run_study",
    "expected_beta",
    "expected_beta_family",
    "beta_star_oracle",
    "load_study_config",
    "study_configs_from_dict",
    "results_to_json",
    "write_results_csv",
]

_BaselineModel = Union[Exponential, Weibull, PiecewiseExponential]

# fixed sub-stream indices that cannot collide with replication numbers
_CALIBRATION_STREAM = 1 << 32
_REFERENCE_STREAM = (1 << 32) + 1
# Monte Carlo draws of the calibration and of the reference E[beta(T)]
_N_MC = 200_000
# Gauss-Legendre nodes per smooth piece of the population oracles' integral
_PIECE_NODES = 64
# subjects per block of the sampler; a block's largest temporary holds one
# double per covariate atom and subject (1 MB for 64 atoms)
_BLOCK_ROWS = 2048


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class BetaFunction:
    """Piecewise-constant, right-continuous coefficient path beta(t).

    ``values[k]`` applies on [changepoints[k-1], changepoints[k]); the
    constant case has no changepoints.
    """

    changepoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        cp = tuple(float(c) for c in self.changepoints)
        vals = tuple(float(v) for v in self.values)
        if len(vals) != len(cp) + 1:
            raise ConfigError("need exactly one more value than changepoints")
        if any(not np.isfinite(v) for v in vals):
            raise ConfigError("coefficient values must be finite")
        if not _positive_ascending(cp):
            raise ConfigError(
                "changepoints must be finite, positive and strictly ascending"
            )
        object.__setattr__(self, "changepoints", cp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value: float) -> "BetaFunction":
        return cls(changepoints=(), values=(float(value),))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(np.asarray(self.changepoints), t, side="right")
        out = np.asarray(self.values)[idx]
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Uniform01:
    """Covariate Z ~ Uniform[0, 1]."""

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.random(n)

    def atoms(self):
        """Quadrature nodes and weights for integrals over the covariate law."""
        x, w = np.polynomial.legendre.leggauss(64)
        return (x + 1.0) / 2.0, w / 2.0


@dataclass(frozen=True)
class Bernoulli:
    """Covariate Z ~ Bernoulli(p)."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ConfigError("Bernoulli p must be in (0, 1)")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return (rng.random(n) < self.p).astype(float)

    def atoms(self):
        return np.array([0.0, 1.0]), np.array([1.0 - self.p, self.p])


@dataclass(frozen=True)
class NoCensoring:
    pass


@dataclass(frozen=True)
class UniformCensoring:
    """C ~ Uniform(0, upper)."""

    upper: float

    def __post_init__(self):
        if not self.upper > 0:
            raise ConfigError("uniform censoring upper bound must be positive")

    def quantile(self, u):
        return u * self.upper

    def survival(self, t):
        """P(C >= t)."""
        return np.clip(1.0 - t / self.upper, 0.0, None)


@dataclass(frozen=True)
class ExponentialCensoring:
    """C ~ Exponential(rate)."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ConfigError("exponential censoring rate must be positive")

    def quantile(self, u):
        return -np.log1p(-u) / self.rate

    def survival(self, t):
        """P(C >= t)."""
        return np.exp(-self.rate * t)


_CensoringLaw = Union[NoCensoring, UniformCensoring, ExponentialCensoring]
_CovariateLaw = Union[Uniform01, Bernoulli]

# the document name of each covariate and censoring law; a covariate law's
# other document keys are its fields (a censoring law's parameter is calibrated)
_COVARIATES = {"uniform01": Uniform01, "bernoulli": Bernoulli}
_CENSORING = {
    "none": NoCensoring,
    "uniform": UniformCensoring,
    "exponential": ExponentialCensoring,
}
# each law field of GeneratorSpec and the classes it may hold
_LAWS = {"baseline": _FAMILIES, "covariate": _COVARIATES, "censoring": _CENSORING}


@dataclass(frozen=True)
class GeneratorSpec:
    """Full description of the data-generating mechanism."""

    baseline: _BaselineModel
    beta: BetaFunction
    covariate: _CovariateLaw = Uniform01()
    censoring: _CensoringLaw = NoCensoring()
    baseline_role: str = "hazard"

    def __post_init__(self):
        for name, laws in _LAWS.items():
            if not isinstance(getattr(self, name), tuple(laws.values())):
                kinds = ", ".join(cls.__name__ for cls in laws.values())
                raise ConfigError(f"{name} must be one of {kinds}")
        if not isinstance(self.beta, BetaFunction):
            raise ConfigError("beta must be a BetaFunction")
        if self.baseline_role not in ("hazard", "marginal"):
            raise ConfigError("baseline_role must be 'hazard' or 'marginal'")


@lru_cache(maxsize=64)
def _segment_tables(baseline, beta: BetaFunction, covariate, role: str):
    """Per-segment tables of the coefficient path, in either baseline role.

    Returns (bvals, Lam, zq, logwq, H): each segment's coefficient and
    baseline cumulative hazard at its start, the covariate atoms and their
    log-weights, and H[k], each atom's conditional cumulative hazard at the
    k-th start; in segment k, S(t|z) = exp(-H[k] - (Lambda0(t) - Lam[k]) e^{b_k z}).
    The marginal role solves segment by segment for the implicit baseline
    increments that make E_Z[S(t|Z)] the model's survival at each changepoint.
    Where that survival underflows to 0, the later segments carry no mass and
    are left out of the tables.
    """
    bounds = np.concatenate(([0.0], np.asarray(beta.changepoints, dtype=float)))
    bvals = np.asarray(beta.values, dtype=float)
    K = bvals.size
    zq, wq = covariate.atoms()
    logwq = np.log(wq)
    H = np.zeros((K, zq.size))
    hazard = role == "hazard"
    Lam = np.asarray(baseline.cumulative_hazard(bounds)) if hazard else np.zeros(K)
    for k in range(K - 1):
        ez = np.exp(bvals[k] * zq)
        if hazard:
            dL = Lam[k + 1] - Lam[k]
        else:
            target = float(baseline.survival(bounds[k + 1]))
            if target == 0.0:
                bvals, Lam, H = bvals[: k + 1], Lam[: k + 1], H[: k + 1]
                break

            def gap(dL):
                return float(np.exp(logwq - H[k] - dL * ez).sum()) - target

            hi = _expand(lambda x: gap(x) < 0.0, 2.0, "the marginal segment increment")
            dL = _brentq(gap, 0.0, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
            Lam[k + 1] = Lam[k] + dL
        H[k + 1] = H[k] + dL * ez
    return bvals, Lam, zq, logwq, H


def _draw_survival_times(
    spec: GeneratorSpec, z: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Exact inversion sampling of T given covariates z.

    All of V is drawn first, then each block of ``_BLOCK_ROWS`` subjects is
    located and inverted in turn into T. Every step is elementwise per
    subject, or per column over the atoms, so a subject's bits do not depend
    on its block. In the marginal role a subject in a zero-coefficient
    segment k skips the atoms: its log-mixture is c_k - M.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    V = rng.exponential(size=n)
    bvals, Lam, zq, logwq, H = _segment_tables(
        spec.baseline, spec.beta, spec.covariate, spec.baseline_role
    )
    dLam = np.diff(Lam)[None, :]
    # per segment k: the log-mixture's offsets log w_q - H[k] and tilts e^{b_k z_q}
    offsets = (logwq - H)[:, :, None]
    tilts = np.exp(np.outer(bvals, zq))[:, :, None]
    # where b_k = 0 every tilt is 1, and log g_k(M) = c_k - M
    c = _log_sum_exp_atoms((logwq - H).T)
    T = np.empty(n)
    # one block's log-mixture terms, atom-major, reused by every block
    work = np.empty(zq.size * _BLOCK_ROWS)
    for start in range(0, n, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        zb, Vb = z[block], V[block]
        # conditional cumulative hazard at each segment start, per subject
        inc = dLam * np.exp(np.outer(zb, bvals[:-1]))
        thr = np.concatenate([np.zeros((zb.size, 1)), np.cumsum(inc, axis=1)], axis=1)
        idx = (Vb[:, None] >= thr).sum(axis=1) - 1
        M = (Vb - thr[np.arange(zb.size), idx]) * np.exp(-bvals[idx] * zb)
        if spec.baseline_role == "hazard":
            T[block] = spec.baseline.inverse_cumulative_hazard(Lam[idx] + M)
            continue
        for k in range(bvals.size):
            rows = np.flatnonzero(idx == k)
            if bvals[k] == 0.0:
                logg = c[k] - M[rows]
            else:
                expo = work[: zq.size * rows.size].reshape(zq.size, rows.size)
                np.multiply(tilts[k], M[rows], out=expo)
                np.subtract(offsets[k], expo, out=expo)
                logg = _log_sum_exp_atoms(expo)
            T[start + rows] = spec.baseline.inverse_cumulative_hazard(
                np.minimum(-logg, 1e12)
            )
    return T


def _log_sum_exp_atoms(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=0)) of a 2-D array with the atoms on axis 0,
    overwriting ``a``.

    The arithmetic of ``scipy.special.logsumexp(b, axis=1)`` (SciPy 1.17)
    for ``b`` the C-ordered transpose of ``a``, hence its bits: each column's
    maxima are taken out of the shifted sum,
    which is divided by their count, and the sum runs in the order of NumPy's
    row sum (``_sum_atoms``). A column whose maximum is not finite gets
    SciPy's fallback, the direct log of the sum of exponentials, which is
    that maximum (NaN, +inf or -inf) itself.
    """
    amax = a.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a == amax
        m = np.count_nonzero(top, axis=0).astype(float)
        np.subtract(a, amax, out=a)
        np.exp(a, out=a)
        np.copyto(a, 0.0, where=top)
        s = _sum_atoms(a)
        np.divide(s, m, out=s, where=s != 0)
        out = np.log1p(s)
        out += np.log(m)
        out += amax
    bad = ~np.isfinite(amax)
    out[bad] = amax[bad]
    return out


def _sum_atoms(a: np.ndarray) -> np.ndarray:
    """Sums over axis 0 of ``a`` (q, n), added in the order NumPy's pairwise
    sum takes for a contiguous row of q values.

    Below 8 values it adds them in sequence to 0; up to 128 it keeps 8 lanes,
    lane j adding values j, j + 8, ..., folds them as ((r0 + r1) + (r2 + r3))
    + ((r4 + r5) + (r6 + r7)) and adds the rest in sequence; above 128 it
    halves at a multiple of 8 and adds the two halves' sums.
    """
    q = a.shape[0]
    if q < 8:
        s = np.zeros(a.shape[1:])
        for row in a:
            s += row
        return s
    if q <= 128:
        tail = q - q % 8
        r = a[:8].copy()
        for i in range(8, tail, 8):
            r += a[i : i + 8]
        s = (r[0] + r[1]) + (r[2] + r[3])
        s += (r[4] + r[5]) + (r[6] + r[7])
        for row in a[tail:]:
            s += row
        return s
    half = q // 2 - q // 2 % 8
    return _sum_atoms(a[:half]) + _sum_atoms(a[half:])


def generate_dataset(spec: GeneratorSpec, n: int, rng) -> SurvivalDataset:
    """One replication: covariates, survival times, censoring, observed data.

    The uniforms driving censoring are drawn after (z, T), so datasets with
    different censoring settings but the same seed share their survival
    times (common random numbers across censoring levels).
    """
    if check_integer(n, "n") < 2:
        raise ConfigError("need n >= 2")
    rng = _as_rng(rng)
    z = spec.covariate.draw(rng, n)
    t = _draw_survival_times(spec, z, rng)
    if isinstance(spec.censoring, NoCensoring):
        time, status = t, np.ones(n, dtype=int)
    else:
        c = spec.censoring.quantile(rng.random(n))
        time = np.minimum(t, c)
        status = (t <= c).astype(int)
    return SurvivalDataset(time=time, status=status, covariates=z[:, None])


def calibrate_censoring(
    spec: GeneratorSpec,
    target_fraction: float,
    rng=None,
) -> float | None:
    """Censoring parameter achieving a target censored fraction.

    Bisects the family parameter of ``spec.censoring`` (upper bound for the
    uniform family, rate for the exponential) over a Monte Carlo estimate of
    P(censored) built from one shared draw of (z, T, u) — common random
    numbers, so the estimated fraction is exactly monotone in the parameter.
    The draw is of a fixed 200,000 subjects. The exact censored fraction at
    the bisected parameter, 1 - P(C >= T) by the failure-law quadrature of
    ``beta_star_oracle``, must lie within +-0.5% of the target.

    Returns None for a zero target (the no-censoring sentinel).
    """
    if target_fraction == 0.0:
        return None
    if not 0.0 < target_fraction < 1.0:
        raise ConfigError("target censoring fraction must be in [0, 1)")
    if isinstance(spec.censoring, NoCensoring):
        raise ConfigError("spec has no censoring family to calibrate")
    rng = _as_rng(rng)
    z = spec.covariate.draw(rng, _N_MC)
    t = _draw_survival_times(spec, z, rng)
    u = rng.random(_N_MC)
    # censored fraction decreases in the uniform upper bound and increases
    # in the exponential rate; bracket [lo, hi] with the target in between
    sign = 1.0 if isinstance(spec.censoring, UniformCensoring) else -1.0

    def excess(param: float) -> float:
        c = type(spec.censoring)(param).quantile(u)
        return sign * (float(np.mean(t > c)) - target_fraction)

    lo = _expand(lambda x: excess(x) > 0.0, 0.5, "the censoring parameter from below")
    hi = _expand(lambda x: excess(x) < 0.0, 2.0, "the censoring parameter from above")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10 * max(1.0, hi):
            break
    param = 0.5 * (lo + hi)

    law = type(spec.censoring)(param)
    achieved = 1.0 - float(_failure_law_nodes(spec, law)[0].sum())
    if abs(achieved - target_fraction) > 0.005:
        raise FitError(
            f"calibration check failed: achieved {achieved:.4f} "
            f"for target {target_fraction:.4f}"
        )
    return param


@dataclass(frozen=True)
class StudyConfig:
    """One simulation design: generator, size, replication count, estimators."""

    spec: GeneratorSpec
    n: int
    reps: int
    seed: int
    target_censoring: float = 0.0
    families_to_fit: tuple[str, ...] = ()
    label: str = ""

    def __post_init__(self):
        # a document's 1500.0 reaches here as 1500: its reader converts it
        for key in ("n", "reps", "seed"):
            check_integer(getattr(self, key), key)
        if self.n < 2:
            raise ConfigError("need n >= 2")
        if self.reps < 1:
            raise ConfigError("need reps >= 1")
        if self.seed < 0:
            raise ConfigError("need seed >= 0")
        if not 0.0 <= self.target_censoring < 1.0:
            raise ConfigError("target_censoring must be in [0, 1)")
        fams = tuple(self.families_to_fit)
        if not fams:
            fams = (_default_family(self.spec.baseline),)
        for f in fams:
            parse_family(f)
        object.__setattr__(self, "families_to_fit", fams)


@dataclass(frozen=True)
class SimStudyResult:
    """Aggregate of one study: per-estimator replication draws and moments."""

    estimates: dict
    means: dict
    sds: dict
    reference_family: float
    reference_mc: float
    censoring_param: float | None
    realized_censoring: float
    n_failed: int
    failures: tuple
    config: StudyConfig
    seed: int


def _default_family(baseline) -> str:
    """The family name of the baseline model, as ``parse_family`` reads it."""
    params = model_params(baseline)
    cuts = ",".join(repr(c) for c in params.get("cuts", ()))
    return f"pwexp:{cuts}" if cuts else params["family"]


def _reps(spec: GeneratorSpec, estimators: dict, n: int, rngs) -> list:
    """Rows (estimates, censored fraction, failures), one replication of
    ``n`` subjects per rng. ``estimators`` maps each estimator's name to its
    scheme; a replication's schemes are the rows of one kernel, solved by
    one batched Newton, and each gets the estimate or the failure it would
    get alone."""
    rows = []
    for rng in rngs:
        data = generate_dataset(spec, n, rng)
        try:
            kernel = _Kernel(data)
            fits = _fit(kernel, _scheme_rows(kernel, estimators.values()))
        except (FitError, DataError) as exc:  # no events: every estimator fails
            fits = [exc] * len(estimators)
        values = {}
        fails = []
        for name, fit in zip(estimators, fits):
            if isinstance(fit, FitResult):
                values[name] = float(fit.beta[0])
            else:
                fails.append((name, str(fit)))
        rows.append((values, 1.0 - float(np.mean(data.status)), fails))
    return rows


def run_study(config: StudyConfig, jobs: int | None = None) -> SimStudyResult:
    """Run all replications of one design and aggregate.

    ``parallel_map`` draws replication ``rep`` from its own substream,
    ``default_rng([seed, rep])``, and returns the rows in replication
    order, so results are bitwise identical for any ``jobs``. No ``jobs``
    uses the CPUs where processes fork, by the rule of
    ``_parallel.default_jobs``, which says when to pass ``jobs=1``; the
    resamplers share it. A replication's estimators share one beta-free
    state and are solved by one batched Newton, each with the estimate or
    failure it would get alone; a marginal that cannot be fitted fails only
    its own estimator. A replication in which any estimator fails is
    dropped from all aggregates; more than 1% failures aborts the study. A
    bad ``jobs`` is refused before the calibration runs.
    """
    check_jobs(jobs)
    spec = config.spec
    if config.target_censoring > 0.0:
        param = calibrate_censoring(
            spec,
            config.target_censoring,
            rng=np.random.default_rng([config.seed, _CALIBRATION_STREAM]),
        )
        spec = replace(spec, censoring=type(spec.censoring)(param))
    else:
        param = None
        spec = replace(spec, censoring=NoCensoring())

    names = ["pl", "km"] + [f"par:{fid}" for fid in config.families_to_fit]
    estimators = {name: _parse_scheme(name) for name in names}
    reps = config.reps
    est = {name: np.full(reps, np.nan) for name in names}
    realized = np.full(reps, np.nan)
    failures = []

    solve = partial(_reps, spec, estimators, config.n)
    rows = parallel_map(solve, config.seed, reps, jobs)
    for rep, (values, frac, fails) in enumerate(rows):
        realized[rep] = frac
        for name, v in values.items():
            est[name][rep] = v
        failures += [(rep, name, msg) for name, msg in fails]

    failed_reps = sorted({rep for rep, _, _ in failures})
    n_failed = len(failed_reps)
    if n_failed > 0.01 * reps:
        first = failures[0]
        raise FitError(
            f"{n_failed}/{reps} replications failed (> 1%): "
            f"rep {first[0]} [{first[1]}]: {first[2]}"
        )
    ok = np.ones(reps, dtype=bool)
    ok[failed_reps] = False

    means = {name: float(np.mean(est[name][ok])) for name in names}
    sds = {
        name: float(np.std(est[name][ok], ddof=1)) if ok.sum() > 1 else 0.0
        for name in names
    }
    ref_family = expected_beta_family(spec)
    ref_mc = expected_beta(
        spec, rng=np.random.default_rng([config.seed, _REFERENCE_STREAM])
    )
    return SimStudyResult(
        estimates={name: est[name] for name in names},
        means=means,
        sds=sds,
        reference_family=ref_family,
        reference_mc=ref_mc,
        censoring_param=param,
        realized_censoring=float(np.mean(realized[ok])),
        n_failed=n_failed,
        failures=tuple(failures),
        config=config,
        seed=config.seed,
    )


def expected_beta(spec: GeneratorSpec, rng=None) -> float:
    """Monte Carlo E[beta(T)] under the generator, censoring ignored.

    The draw is of a fixed 200,000 subjects.
    """
    rng = _as_rng(rng)
    z = spec.covariate.draw(rng, _N_MC)
    t = _draw_survival_times(spec, z, rng)
    return float(np.mean(spec.beta(t)))


def expected_beta_family(spec: GeneratorSpec) -> float:
    """Closed-form E[beta(T)] treating the baseline model as the law of T.

    Exact for the marginal baseline role; for the hazard role it is the
    baseline-distribution average the reference tables print, which differs
    from the generator-faithful value whenever beta varies over time.
    """
    inner = [float(spec.baseline.survival(c)) for c in spec.beta.changepoints]
    surv = np.array([1.0] + inner + [0.0])
    vals = np.asarray(spec.beta.values, dtype=float)
    return float(np.sum(vals * (surv[:-1] - surv[1:])))


def _failure_law_nodes(spec: GeneratorSpec, law):
    """Quadrature over u = F(t) of the failure law, weighted by P(C >= t).

    Returns (w, b, q, zq): the weights dF(t) P(C >= t), beta0(t), and the
    risk set's covariate profile S(t|z) dP(z) over the atoms zq (one row per
    node, largest entry 1). Gauss-Legendre runs over each coefficient segment
    as u = phi(s) = 10 s^3 - 15 s^4 + 6 s^5, whose derivative vanishes at both
    ends; that smooths the integrand's power and log behaviour there. Where
    P(C >= t) bends inside a segment, it is split by a changepoint at which
    beta does not change. At each node, Newton's method from M = 0 on the
    convex, decreasing log E_Z[S(t|Z)] rises to the root of E_Z[S(t|Z)] = 1 - u.
    """
    cuts = set(spec.beta.changepoints)
    censored = not isinstance(law, NoCensoring)
    if censored:
        # P(C >= t) bends where t(u) does, at a piecewise baseline's cuts
        if isinstance(spec.baseline, PiecewiseExponential):
            cuts.update(spec.baseline.cuts)
        if isinstance(law, UniformCensoring):
            cuts.add(law.upper)
    cuts = sorted(cuts)
    values = spec.beta(np.array([0.0, *cuts]))
    beta = BetaFunction(changepoints=tuple(cuts), values=tuple(values))
    bvals, Lam, zq, logwq, H = _segment_tables(
        spec.baseline, beta, spec.covariate, spec.baseline_role
    )
    # 1 - u = E_Z[S(t|Z)] at each segment's start and end
    top = np.exp(_log_sum_exp_atoms((logwq - H).T))
    bottom = np.append(top[1:], 0.0)
    x, gw = np.polynomial.legendre.leggauss(_PIECE_NODES)
    s = 0.5 * (x + 1.0)
    phi = s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
    dphi = 15.0 * gw * (s * (1.0 - s)) ** 2
    hazard = spec.baseline_role == "hazard"
    parts = []
    for k, bk in enumerate(bvals):
        if top[k] == 0.0:
            break  # the failure law has no mass left past this point
        log_surv = np.log(bottom[k] + (top[k] - bottom[k]) * phi)
        ez = np.exp(bk * zq)
        M = np.zeros(s.size)
        for _ in range(100):
            a = logwq - H[k] - np.multiply.outer(M, ez)
            amax = a.max(axis=1, keepdims=True)
            q = np.exp(a - amax)
            g = q.sum(axis=1)
            step = (np.log(g) + amax[:, 0] - log_surv) * g / (q @ ez)
            M += step
            if np.all(np.abs(step) <= 1e-13 * (1.0 + M)):
                break
        else:
            raise FitError("no convergence of the failure-law quadrature")
        # the baseline's cumulative hazard at t: Lam[k] + M, or in the marginal
        # role the marginal's, -log(1 - u)
        t = spec.baseline.inverse_cumulative_hazard(Lam[k] + M if hazard else -log_surv)
        w = (top[k] - bottom[k]) * dphi
        if censored:
            w *= law.survival(t)
        parts.append((w, np.full(s.size, bk), q))
    w, b, q = (np.concatenate(p) for p in zip(*parts))
    return w, b, q, zq


def beta_star_oracle(spec: GeneratorSpec, weighting: str = "failure") -> float:
    """Population limit of the estimators, by deterministic quadrature.

    Solves  integral P(C >= t)^k { e(beta0(t), t) - e(beta, t) } dF(t) = 0
    for beta, with e(beta, t) the beta-tilted covariate mean of the risk set
    at t and F the failure law. ``weighting='failure'`` (k = 0) gives beta*,
    the censoring-free target of the marginal-weighted estimators (Xu &
    O'Quigley 2000); ``weighting='risk'`` (k = 1) gives the limit of partial
    likelihood under the spec's censoring (Struthers & Kalbfleisch 1986).
    """
    if weighting not in ("failure", "risk"):
        raise ConfigError("weighting must be 'failure' or 'risk'")
    law = spec.censoring if weighting == "risk" else NoCensoring()
    w, b, q, zq = _failure_law_nodes(spec, law)

    def weighted_mean(beta) -> float:
        tilted = q * np.exp(np.multiply.outer(beta, zq))
        return float(w @ (tilted @ zq / tilted.sum(axis=1)))

    # target - weighted_mean(beta) falls in beta, from >= 0 at the smallest
    # beta0(t) to <= 0 at the largest
    target = weighted_mean(b)
    lo, hi = min(spec.beta.values) - 1.0, max(spec.beta.values) + 1.0
    return _brentq(lambda x: target - weighted_mean(x), lo, hi, xtol=1e-13)


# -- study configuration files ------------------------------------------------


def _value(d: dict, key: str, convert, *default):
    """``convert(d[key])`` (of ``default`` if given and the key is absent).

    A value that ``convert`` rejects is a ConfigError naming ``key``.
    """
    value = d.get(key, *default) if default else d[key]
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError, DataError) as exc:
        raise ConfigError(f"study config key {key!r}: {exc}") from None


def _as_dict(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    return value


def _integer(value) -> int:
    """A JSON integer, or a float with an integral value such as 1500.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if not float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _number(value) -> float:
    """A JSON number; a boolean or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _floats(value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    return tuple(_number(v) for v in value)


def _levels(value) -> tuple[float, ...]:
    """One number, or a nonempty list of them."""
    levels = _floats(value) if isinstance(value, (list, tuple)) else (_number(value),)
    if not levels:
        raise ValueError("expected at least one level, got []")
    return levels


def _names(value) -> tuple[str, ...]:
    listed = isinstance(value, (list, tuple))
    if not (listed and all(isinstance(v, str) for v in value)):
        raise TypeError(f"expected a list of family names, got {value!r}")
    return tuple(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _one_of(names: dict):
    """Reader of a law's document name, which returns the class it names."""

    def read(value):
        if not (isinstance(value, str) and value in names):
            raise ValueError(f"expected one of {', '.join(names)}, got {value!r}")
        return names[value]

    return read


# the reader of a law's field, by the field's annotated type
_FIELD_READERS = {"float": _number, "tuple[float, ...]": _floats}

# the document keys that are StudyConfig fields as they stand: key -> (reader,
# default), and a key without a default is required
_KEYS = {
    "n": (_integer,),
    "reps": (_integer,),
    "seed": (_integer,),
    "families_to_fit": (_names, ()),
    "label": (_text, ""),
}
# every key of a document, as ``_config_echo`` writes them
_DOC_KEYS = ("baseline", "beta", "covariate", "censoring_family", "target_censoring")
_DOC_KEYS += tuple(_KEYS)


def _known(d: dict, allowed: tuple) -> None:
    """A key of ``d`` that is not ``allowed``, as a misspelt one, is a ConfigError."""
    for key in d:
        if key not in allowed:
            raise ConfigError(f"study config: unknown key {key!r}, not in {allowed}")


def _law(key: str, names: dict, *default, extra: tuple = ()):
    """Reader of a law: the class that an object names at ``key``, built from
    the object's other keys (its fields, and ``extra`` keys the caller reads)."""
    def read(d):
        cls = _value(_as_dict(d), key, _one_of(names), *default)
        readers = {f.name: _FIELD_READERS[f.type] for f in fields(cls)}
        _known(d, (key, *readers, *extra))
        return cls(**{name: _value(d, name, r) for name, r in readers.items()})

    return read


def study_configs_from_dict(doc: dict) -> list[StudyConfig]:
    """Expand one config document into per-censoring-level StudyConfigs.

    ``target_censoring`` may be a number or a list of numbers; each level
    becomes one study sharing the document's seed, so survival draws are
    common random numbers across levels. A malformed value, or a key that
    ``_config_echo`` would not write, raises a ConfigError that names its key.
    """
    try:
        _known(doc, _DOC_KEYS)
        baseline = _value(doc, "baseline", _law("family", _FAMILIES, extra=("role",)))
        role = doc["baseline"].get("role", "hazard")
        bd = _value(doc, "beta", _as_dict)
        _known(bd, ("constant",) if "constant" in bd else ("changepoints", "values"))
        if "constant" in bd:
            beta = BetaFunction.constant(_value(bd, "constant", _number))
        else:
            beta = BetaFunction(
                changepoints=_value(bd, "changepoints", _floats, ()),
                values=_value(bd, "values", _floats),
            )
        covariate = _value(doc, "covariate", _law("kind", _COVARIATES, "uniform01"), {})
        censoring = _value(doc, "censoring_family", _one_of(_CENSORING), "none")
        targets = _value(doc, "target_censoring", _levels, 0.0)
        scalars = {key: _value(doc, key, *how) for key, how in _KEYS.items()}
    except KeyError as exc:
        raise ConfigError(f"study config is missing key {exc.args[0]!r}") from None
    if censoring is NoCensoring and any(x > 0 for x in targets):
        raise ConfigError("nonzero target_censoring with censoring_family 'none'")
    spec = GeneratorSpec(
        baseline=baseline,
        beta=beta,
        covariate=covariate,
        # a placeholder parameter, which calibration replaces
        censoring=censoring(*(1.0 for _ in fields(censoring))),
        baseline_role=role,
    )
    return [StudyConfig(spec=spec, target_censoring=x, **scalars) for x in targets]


def load_study_config(path) -> list[StudyConfig]:
    """Read a study config JSON file.

    The file holds one design document or a list of them (e.g. the two
    coefficient settings of a reference table); each expands into one study
    per censoring level. See study_configs_from_dict.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    docs = doc if isinstance(doc, list) else [doc]
    configs: list[StudyConfig] = []
    for d in docs:
        if not isinstance(d, dict):
            raise ConfigError("study config entries must be JSON objects")
        configs.extend(study_configs_from_dict(d))
    return configs


def _config_echo(config: StudyConfig) -> dict:
    """The design document that reads back as ``config``."""
    spec = config.spec
    return {
        "baseline": {**model_params(spec.baseline), "role": spec.baseline_role},
        "beta": _fields_doc(spec.beta),
        "covariate": {
            "kind": _name_of(spec.covariate, _COVARIATES),
            **_fields_doc(spec.covariate),
        },
        "censoring_family": _name_of(spec.censoring, _CENSORING),
        "target_censoring": config.target_censoring,
        **{key: _plain(getattr(config, key)) for key in _KEYS},
    }


def _study_record(r: SimStudyResult) -> dict:
    """One study's entry in the JSON sidecar, which the CSV's columns read too."""
    return {
        "config": _config_echo(r.config),
        "censoring_param": r.censoring_param,
        "realized_censoring": r.realized_censoring,
        "n_failed": r.n_failed,
        "estimators": {
            name: {"mean": r.means[name], "sd": r.sds[name]} for name in r.means
        },
        "expected_beta_family": r.reference_family,
        "expected_beta_mc": r.reference_mc,
        "seed": r.seed,
    }


def results_to_json(results: list[SimStudyResult]) -> dict:
    """JSON sidecar document for a list of study results."""
    return {"schema": 1, "studies": [_study_record(r) for r in results]}


def _estimator_names(results: list[SimStudyResult]) -> list[str]:
    """Every estimator that some study fitted, in first-seen order."""
    return list(dict.fromkeys(name for r in results for name in r.means))


# the CSV's columns before and after the estimators' mean/sd pairs, each a key
# of the study's record or of its config echo
_CSV_LEAD = ("label", "censoring_family", "target_censoring", "realized_censoring")
_CSV_TAIL = ("expected_beta_family", "expected_beta_mc", "n", "reps", "seed")


def write_results_csv(results: list[SimStudyResult], path) -> None:
    """Wide CSV, one row per censoring level, mean/sd columns per estimator.

    The columns are ``label``, the censoring family and levels, a
    ``<estimator>_mean`` and ``<estimator>_sd`` pair per estimator, the
    reference E[beta(T)] values, ``n``, ``reps`` and ``seed``. Numbers are
    written by ``repr`` and a label holding a comma is quoted. A study that
    did not fit an estimator leaves its two cells empty.
    """
    if not results:
        raise ConfigError("no results to write")
    pairs = (f"{n}_{x}" for n in _estimator_names(results) for x in ("mean", "sd"))
    header = [*_CSV_LEAD, *pairs, *_CSV_TAIL]
    rows = []
    for r in results:
        record = _study_record(r)
        cells = {**record["config"], **record}
        for name, est in record["estimators"].items():
            cells[f"{name}_mean"], cells[f"{name}_sd"] = est["mean"], est["sd"]
        rows.append([cells.get(column, "") for column in header])
    _write_table(path, header, rows)
