"""Data generator, censoring calibration, study harness and limit oracles."""

from __future__ import annotations

import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import expit, logsumexp

from margfit import (
    Bernoulli,
    BetaFunction,
    ConfigError,
    Exponential,
    ExponentialCensoring,
    FitError,
    GeneratorSpec,
    NoCensoring,
    PiecewiseExponential,
    StudyConfig,
    Uniform01,
    UniformCensoring,
    Weibull,
    beta_star_oracle,
    calibrate_censoring,
    draw_survival_time,
    expected_beta,
    expected_beta_family,
    generate_dataset,
    load_study_config,
    results_to_json,
    run_study,
    study_configs_from_dict,
    write_results_csv,
)
from margfit.simulate import (
    _BLOCK_ROWS,
    _KEYS,
    _config_echo,
    _draw_survival_times,
    _log_sum_exp_rows,
    _segment_tables,
)

# the change-point design studied throughout: beta(t) = 1 on [0, 0.2), 0 after,
# with the failure time's marginal law pinned to Exponential(2)
CHANGEPOINT = GeneratorSpec(
    baseline=Exponential(rate=2.0),
    beta=BetaFunction(changepoints=(0.2,), values=(1.0, 0.0)),
    covariate=Uniform01(),
    baseline_role="marginal",
)
PH = GeneratorSpec(
    baseline=Exponential(rate=2.0),
    beta=BetaFunction.constant(1.0),
    covariate=Uniform01(),
    baseline_role="marginal",
)


class TestBetaFunction:
    def test_constant(self):
        b = BetaFunction.constant(0.7)
        assert b(0.0) == 0.7 and b(100.0) == 0.7
        assert np.array_equal(b(np.array([0.1, 5.0])), [0.7, 0.7])

    def test_changepoint_is_right_continuous(self):
        b = BetaFunction(changepoints=(0.2,), values=(1.0, 0.0))
        assert b(0.0) == 1.0 and b(0.19) == 1.0
        # the new value applies at the change point itself
        assert b(0.2) == 0.0 and b(10.0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            BetaFunction(changepoints=(0.2, 0.1), values=(1.0, 0.5, 0.0))
        with pytest.raises(ConfigError):
            BetaFunction(changepoints=(0.2,), values=(1.0,))
        with pytest.raises(ConfigError):
            BetaFunction(changepoints=(-0.1,), values=(1.0, 0.0))
        with pytest.raises(ConfigError):
            BetaFunction(changepoints=(np.nan,), values=(1.0, 0.0))


class TestGeneratorSpecValidation:
    def test_role_must_be_known(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(
                baseline=Exponential(rate=1.0),
                beta=BetaFunction.constant(0.0),
                baseline_role="conditional",
            )

    def test_marginal_role_rejects_unsupported_baseline(self):
        # an external step curve has no parametric inverse cumulative hazard
        with pytest.raises(ConfigError):
            GeneratorSpec(
                baseline=stats.norm,  # not a usable marginal model at all
                beta=BetaFunction.constant(0.0),
            )


class TestHazardRole:
    def test_zero_beta_is_plain_baseline(self):
        spec = GeneratorSpec(
            baseline=Exponential(rate=1.5), beta=BetaFunction.constant(0.0)
        )
        rng = np.random.default_rng(12)
        t = np.array([draw_survival_time(spec, 0.7, rng) for _ in range(4000)])
        assert stats.kstest(t, "expon", args=(0, 1 / 1.5)).pvalue > 0.01

    def test_constant_beta_scales_hazard(self):
        spec = GeneratorSpec(
            baseline=Exponential(rate=1.0), beta=BetaFunction.constant(2.0)
        )
        rng = np.random.default_rng(13)
        d = generate_dataset(
            GeneratorSpec(
                baseline=Exponential(rate=1.0),
                beta=BetaFunction.constant(2.0),
                covariate=Bernoulli(0.5),
            ),
            20_000,
            rng,
        )
        z = d.covariates[:, 0]
        # z = 1 subjects fail at rate e^2
        t1 = d.time[z == 1]
        assert stats.kstest(t1, "expon", args=(0, np.exp(-2.0))).pvalue > 0.01
        assert spec.baseline_role == "hazard"

    def test_changepoint_survival_closed_form(self):
        # lambda(t | z=1) = 2 e^{1} on [0, 0.5), 2 after: S(1) = exp(-e 1 - 1)
        spec = GeneratorSpec(
            baseline=Exponential(rate=2.0),
            beta=BetaFunction(changepoints=(0.5,), values=(1.0, 0.0)),
        )
        rng = np.random.default_rng(14)
        t = np.array([draw_survival_time(spec, 1.0, rng) for _ in range(20_000)])
        for u, s_true in [
            (0.3, np.exp(-2 * np.e * 0.3)),
            (1.0, np.exp(-np.e - 1.0)),
        ]:
            phat = (t > u).mean()
            se = np.sqrt(s_true * (1 - s_true) / t.size)
            assert abs(phat - s_true) < 4 * se

    def test_weibull_baseline(self):
        spec = GeneratorSpec(
            baseline=Weibull(shape=2.0, scale=1.0), beta=BetaFunction.constant(0.0)
        )
        rng = np.random.default_rng(15)
        t = np.array([draw_survival_time(spec, 0.0, rng) for _ in range(4000)])
        assert stats.kstest(t, "weibull_min", args=(2.0,)).pvalue > 0.01


class TestMarginalRole:
    """The baseline is the *marginal* law of T; covariate effects must wash out."""

    @pytest.mark.parametrize(
        "beta,cov,seed",
        [
            (BetaFunction(changepoints=(0.2,), values=(1.0, 0.0)), Uniform01(), 16),
            (BetaFunction(changepoints=(0.2,), values=(3.0, 0.0)), Uniform01(), 16),
            (BetaFunction.constant(1.0), Uniform01(), 16),
            (BetaFunction(changepoints=(0.2,), values=(1.0, 0.0)), Bernoulli(0.5), 160),
        ],
    )
    def test_marginal_is_exponential_two(self, beta, cov, seed):
        spec = GeneratorSpec(
            baseline=Exponential(rate=2.0),
            beta=beta,
            covariate=cov,
            baseline_role="marginal",
        )
        rng = np.random.default_rng(seed)
        d = generate_dataset(spec, 30_000, rng)
        assert d.status.all()
        assert stats.kstest(d.time, "expon", args=(0, 0.5)).pvalue > 0.01

    def test_marginal_weibull_target(self):
        spec = GeneratorSpec(
            baseline=Weibull(shape=1.5, scale=0.7),
            beta=BetaFunction(changepoints=(0.3,), values=(1.0, 0.2)),
            covariate=Uniform01(),
            baseline_role="marginal",
        )
        rng = np.random.default_rng(17)
        d = generate_dataset(spec, 25_000, rng)
        assert stats.kstest(d.time, "weibull_min", args=(1.5, 0, 0.7)).pvalue > 0.01

    def test_covariate_effect_direction(self):
        # positive beta: higher covariate values fail earlier, conditionally
        rng = np.random.default_rng(18)
        d = generate_dataset(CHANGEPOINT, 30_000, rng)
        z = d.covariates[:, 0]
        early = d.time < 0.1
        assert z[early].mean() > z[~early].mean() + 0.01

    @pytest.mark.parametrize("cov", [Uniform01(), Bernoulli(0.4)], ids=["u01", "bern"])
    @pytest.mark.parametrize(
        "changepoints, values",
        [((400.0,), (1.0, 0.0)), ((400.0, 500.0), (1.0, 0.0, 2.0))],
        ids=["one", "two"],
    )
    def test_segments_past_an_underflowed_survival_carry_no_mass(
        self, cov, changepoints, values
    ):
        # Exponential(2) survival is 0.0 in double precision from t = 400 on
        censoring = ExponentialCensoring(rate=1.0)
        flat = replace(PH, covariate=cov, censoring=censoring)
        spec = replace(flat, beta=BetaFunction(changepoints, values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = (generate_dataset(s, 2000, 4) for s in (spec, flat))
            oracles = [
                (beta_star_oracle(spec, w), beta_star_oracle(flat, w))
                for w in ("failure", "risk")
            ]
        for field in ("time", "status", "covariates"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        for limit, flat_limit in oracles:
            assert limit == pytest.approx(flat_limit, abs=1e-12)


def _scipy_marginal_draw(spec, z, rng):
    """The marginal-role sampler on SciPy's ``logsumexp``, one whole-array
    temporary per coefficient segment: the reference the row-block sampler
    must reproduce bit for bit."""
    n = z.size
    V = rng.exponential(size=n)
    bvals, Lam, zq, logwq, H = _segment_tables(
        spec.baseline, spec.beta, spec.covariate, "marginal"
    )
    if bvals.size == 1:
        idx = np.zeros(n, dtype=int)
        thr_at = np.zeros(n)
    else:
        inc = np.diff(Lam)[None, :] * np.exp(np.outer(z, bvals[:-1]))
        thr = np.concatenate([np.zeros((n, 1)), np.cumsum(inc, axis=1)], axis=1)
        idx = (V[:, None] >= thr).sum(axis=1) - 1
        thr_at = thr[np.arange(n), idx]
    M = (V - thr_at) * np.exp(-bvals[idx] * z)
    T = np.empty(n)
    for k in np.unique(idx):
        m = idx == k
        expo = logwq[None, :] - H[k][None, :] - np.outer(M[m], np.exp(bvals[k] * zq))
        logg = logsumexp(expo, axis=1)
        T[m] = spec.baseline.inverse_cumulative_hazard(np.minimum(-logg, 1e12))
    return T


class TestMarginalSampler:
    """Row blocks and the NumPy log-sum-exp keep the SciPy sampler's bits."""

    @pytest.mark.parametrize(
        "spec",
        [
            CHANGEPOINT,
            PH,
            replace(CHANGEPOINT, covariate=Bernoulli(0.5)),
            replace(
                CHANGEPOINT,
                baseline=Weibull(shape=1.5, scale=0.7),
                beta=BetaFunction(changepoints=(0.3,), values=(1.0, 0.2)),
            ),
            replace(
                CHANGEPOINT,
                baseline=PiecewiseExponential(cuts=(0.3,), rates=(1.0, 3.0)),
            ),
        ],
        ids=["changepoint", "constant", "bernoulli", "weibull", "pwexp"],
    )
    def test_draws_match_scipy_reference_bitwise(self, spec):
        n = 3 * _BLOCK_ROWS + 17
        z = spec.covariate.draw(np.random.default_rng(1), n)
        got = _draw_survival_times(spec, z, np.random.default_rng(2))
        want = _scipy_marginal_draw(spec, z, np.random.default_rng(2))
        assert np.array_equal(got, want)
        if spec is CHANGEPOINT:
            # both coefficient segments hold rows, the later one several blocks
            early = int((want < 0.2).sum())
            assert 0 < early and n - early > _BLOCK_ROWS

    def test_log_sum_exp_rows_matches_scipy_bitwise(self):
        rng = np.random.default_rng(3)
        *_, logwq, _ = _segment_tables(
            CHANGEPOINT.baseline, CHANGEPOINT.beta, Uniform01(), "marginal"
        )
        a = rng.normal(size=(200, 64)) * rng.choice([1e-3, 1.0, 30.0], size=(200, 1))
        a[:50] = logwq - rng.random((50, 1))  # symmetric log-weights: tied maxima
        a[50] = np.linspace(-800.0, 5.0, 64)  # spread above 700
        a[51] = -np.inf
        a[52, 7] = np.nan
        a[53, 9] = np.inf
        assert np.all((a[:50] == a[:50].max(axis=1, keepdims=True)).sum(axis=1) == 2)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = logsumexp(a, axis=1)
        got = _log_sum_exp_rows(a.copy())
        assert np.array_equal(got, want, equal_nan=True)
        assert got[51] == -np.inf and np.isnan(got[52]) and got[53] == np.inf

    def test_reference_draw_memory_is_bounded(self):
        # NumPy reports its buffers to tracemalloc; a whole-array (200k, 64)
        # temporary alone would be 100 MB
        tracemalloc.start()
        try:
            expected_beta(CHANGEPOINT, rng=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestCensoring:
    def test_uniform_censoring_fraction_closed_form(self):
        # P(C < T) for T ~ Exp(2), C ~ U(0, c): 1 - (1 - e^{-2c}) / (2c)
        spec = GeneratorSpec(
            baseline=Exponential(rate=2.0),
            beta=BetaFunction.constant(0.0),
            censoring=UniformCensoring(upper=0.8),
            baseline_role="marginal",
        )
        rng = np.random.default_rng(19)
        d = generate_dataset(spec, 40_000, rng)
        frac = 1.0 - d.status.mean()
        truth = 1.0 - (1.0 - np.exp(-1.6)) / 1.6
        assert abs(frac - truth) < 4 * np.sqrt(truth * (1 - truth) / d.n)

    def test_exponential_censoring_fraction_closed_form(self):
        # P(C < T) for T ~ Exp(2), C ~ Exp(r): r / (2 + r)
        spec = GeneratorSpec(
            baseline=Exponential(rate=2.0),
            beta=BetaFunction.constant(0.0),
            censoring=ExponentialCensoring(rate=2.0),
            baseline_role="marginal",
        )
        rng = np.random.default_rng(20)
        d = generate_dataset(spec, 40_000, rng)
        assert abs((1.0 - d.status.mean()) - 0.5) < 0.011

    def test_calibration_matches_closed_forms(self):
        spec = GeneratorSpec(
            baseline=Exponential(rate=2.0),
            beta=BetaFunction(changepoints=(0.2,), values=(1.0, 0.0)),
            covariate=Uniform01(),
            censoring=UniformCensoring(upper=1.0),
            baseline_role="marginal",
        )
        rng = np.random.default_rng(21)
        upper = calibrate_censoring(spec, 0.5, rng=rng)
        # solves (1 - e^{-2c}) / (2c) = 1/2  =>  c = 0.7968
        assert upper == pytest.approx(0.7968, abs=0.02)

        spec_e = GeneratorSpec(
            baseline=Exponential(rate=2.0),
            beta=BetaFunction(changepoints=(0.2,), values=(1.0, 0.0)),
            covariate=Uniform01(),
            censoring=ExponentialCensoring(rate=1.0),
            baseline_role="marginal",
        )
        rate = calibrate_censoring(spec_e, 1 / 6, rng=np.random.default_rng(22))
        assert rate == pytest.approx(0.4, abs=0.02)
        rate50 = calibrate_censoring(spec_e, 0.5, rng=np.random.default_rng(23))
        assert rate50 == pytest.approx(2.0, abs=0.08)

    def test_calibration_zero_target_is_none(self):
        spec = GeneratorSpec(
            baseline=Exponential(rate=2.0),
            beta=BetaFunction.constant(0.0),
            censoring=UniformCensoring(upper=1.0),
            baseline_role="marginal",
        )
        assert calibrate_censoring(spec, 0.0, rng=np.random.default_rng(1)) is None

    def test_calibration_errors(self):
        no_cens = GeneratorSpec(
            baseline=Exponential(rate=2.0),
            beta=BetaFunction.constant(0.0),
            baseline_role="marginal",
        )
        with pytest.raises(ConfigError):
            calibrate_censoring(no_cens, 0.3, rng=np.random.default_rng(1))
        spec = GeneratorSpec(
            baseline=Exponential(rate=2.0),
            beta=BetaFunction.constant(0.0),
            censoring=UniformCensoring(upper=1.0),
            baseline_role="marginal",
        )
        with pytest.raises(ConfigError):
            calibrate_censoring(spec, 1.0, rng=np.random.default_rng(1))


class TestReferences:
    def test_constant_beta_is_exact(self):
        spec = GeneratorSpec(
            baseline=Exponential(rate=2.0),
            beta=BetaFunction.constant(0.6),
            baseline_role="marginal",
        )
        assert expected_beta_family(spec) == pytest.approx(0.6)

    def test_changepoint_closed_form(self):
        # E[beta(T)] = 1 * P(T < 0.2) = 1 - e^{-0.4} for T ~ Exp(2)
        assert expected_beta_family(CHANGEPOINT) == pytest.approx(1 - np.exp(-0.4))

    def test_monte_carlo_agrees_with_family_form(self):
        mc = expected_beta(CHANGEPOINT, rng=np.random.default_rng(3))
        assert mc == pytest.approx(expected_beta_family(CHANGEPOINT), abs=0.005)


@pytest.fixture(scope="module")
def small_study():
    cfg = StudyConfig(spec=PH, n=400, reps=30, seed=314, label="small")
    return cfg, run_study(cfg)


@pytest.fixture(scope="module")
def tiny_result():
    cfg = StudyConfig(spec=PH, n=150, reps=3, seed=2, label="tiny")
    return run_study(cfg)


class TestRunStudy:
    def test_is_deterministic(self, small_study):
        cfg, res = small_study
        again = run_study(cfg)
        for name in res.estimates:
            assert np.array_equal(res.estimates[name], again.estimates[name])

    def test_jobs_do_not_change_results(self, small_study):
        cfg, res = small_study
        par = run_study(cfg, jobs=2)
        for name in res.estimates:
            assert np.array_equal(res.estimates[name], par.estimates[name])

    def test_ph_estimates_center_on_truth(self, small_study):
        _, res = small_study
        for name, mean in res.means.items():
            assert abs(mean - 1.0) < 4 * res.sds[name] / np.sqrt(30)
        assert res.reference_family == pytest.approx(1.0)
        assert res.censoring_param is None
        assert res.realized_censoring == 0.0

    def test_uncensored_km_collapses_to_pl(self, small_study):
        _, res = small_study
        assert np.abs(res.estimates["km"] - res.estimates["pl"]).max() < 1e-9

    def test_censored_study_hits_target(self):
        spec = GeneratorSpec(
            baseline=Exponential(rate=2.0),
            beta=BetaFunction.constant(1.0),
            covariate=Uniform01(),
            censoring=UniformCensoring(upper=1.0),
            baseline_role="marginal",
        )
        cfg = StudyConfig(
            spec=spec, n=600, reps=20, seed=11, target_censoring=0.3, label="cens"
        )
        res = run_study(cfg)
        assert abs(res.realized_censoring - 0.3) < 0.02
        assert res.censoring_param is not None
        # three estimator families tracked by default
        assert set(res.estimates) == {"pl", "km", "par:exponential"}

    def test_failed_reps_are_dropped_not_fatal(self):
        spec = GeneratorSpec(
            baseline=Exponential(rate=1.0),
            beta=BetaFunction.constant(0.5),
            covariate=Bernoulli(0.5),
        )
        cfg = StudyConfig(spec=spec, n=10, reps=400, seed=5, label="tol")
        res = run_study(cfg)
        assert res.n_failed == 1
        assert np.isnan(res.estimates["pl"]).sum() == 1
        assert np.isfinite(list(res.means.values())).all()

    def test_too_many_failures_abort(self):
        spec = GeneratorSpec(
            baseline=Exponential(rate=1.0),
            beta=BetaFunction.constant(0.5),
            covariate=Bernoulli(0.5),
        )
        cfg = StudyConfig(spec=spec, n=6, reps=120, seed=99, label="tiny")
        with pytest.raises(FitError, match="> 1%"):
            run_study(cfg)

    def test_target_without_family_rejected(self):
        cfg = StudyConfig(spec=PH, n=100, reps=2, seed=1, target_censoring=0.4)
        with pytest.raises(ConfigError, match="censoring family"):
            run_study(cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            StudyConfig(spec=PH, n=1, reps=10, seed=0)
        with pytest.raises(ConfigError):
            StudyConfig(spec=PH, n=10, reps=0, seed=0)
        with pytest.raises(ConfigError):
            StudyConfig(spec=PH, n=10, reps=10, seed=0, target_censoring=1.0)
        with pytest.raises(ConfigError):
            StudyConfig(spec=PH, n=10, reps=10, seed=0, families_to_fit=("gamma",))


def _quad_limit(design, k):
    """Independent population limit: SciPy ``quad`` over t, ``brentq`` over beta.

    Root of  int_0^inf P(C >= t)^k {e(beta0(t), t) - e(beta, t)} f(t) dt.
    ``design`` holds plain numbers and functions, no margfit objects: a
    Bernoulli(p) covariate, so that e(beta, t) = expit(beta + logit p -
    A(t, 1) + A(t, 0)) with A(t, z) the conditional cumulative hazard; the
    coefficient path (cuts, values); the model's cumulative hazard and
    hazard, read as the baseline (role "hazard") or as the marginal law of T
    (role "marginal", whose implicit baseline is solved at each t by
    ``brentq``); and P(C >= t) with the end of its support.
    """
    p, cuts, values = design["p"], design["cuts"], design["values"]
    cum, haz, at_risk, end = (design[key] for key in ("cum", "haz", "at_risk", "end"))
    starts = [0.0, *cuts]

    def seg(t):
        return int(np.searchsorted(cuts, t, side="right"))

    def cum_hazards(t):
        """A(t, 0) and A(t, 1)."""
        if design["role"] == "hazard":
            spans = [max(0.0, cum(min(t, b)) - cum(a)) for a, b in zip(starts, cuts)]
            spans.append(max(0.0, cum(t) - cum(starts[-1])))
            return sum(spans), sum(s * np.exp(b) for s, b in zip(spans, values))
        h0 = h1 = 0.0
        for j in range(seg(t) + 1):
            target = np.exp(-cum(min(t, cuts[j]) if j < len(cuts) else t))
            eb = np.exp(values[j])

            def gap(m):
                return (1 - p) * np.exp(-h0 - m) + p * np.exp(-h1 - m * eb) - target

            m = brentq(gap, 0.0, 1e3, xtol=1e-15, rtol=1e-15)
            h0, h1 = h0 + m, h1 + m * eb
        return h0, h1

    def density(t):
        if design["role"] == "marginal":
            return haz(t) * np.exp(-cum(t))
        a0, a1 = cum_hazards(t)
        return haz(t) * ((1 - p) * np.exp(-a0) + p * np.exp(values[seg(t)] - a1))

    def e(beta, t):
        a0, a1 = cum_hazards(t)
        return expit(beta + np.log(p / (1 - p)) - a1 + a0)

    edges = sorted({*starts, np.inf} | ({end} if k else set()))
    edges = [x for x in edges if not k or x <= end]

    def score(beta):
        def integrand(t):
            f = density(t)
            if f == 0.0:  # exp(-cum(t)) underflows: no implicit baseline to solve
                return 0.0
            return at_risk(t) ** k * f * (e(values[seg(t)], t) - e(beta, t))

        return sum(
            quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
            for a, b in zip(edges, edges[1:])
        )

    return brentq(score, min(values) - 1.0, max(values) + 1.0, xtol=1e-13)


# Weibull(shape 1.5) hazard, three coefficient segments, Exp(0.7) censoring
HAZARD_DESIGN = GeneratorSpec(
    baseline=Weibull(shape=1.5, scale=1.0),
    beta=BetaFunction(changepoints=(0.3, 0.8), values=(1.0, -0.5, 0.5)),
    covariate=Bernoulli(0.4),
    censoring=ExponentialCensoring(rate=0.7),
)
HAZARD_NUMBERS = {
    "role": "hazard",
    "p": 0.4,
    "cuts": [0.3, 0.8],
    "values": [1.0, -0.5, 0.5],
    "cum": lambda t: t**1.5,
    "haz": lambda t: 1.5 * t**0.5,
    "at_risk": lambda t: np.exp(-0.7 * t),
    "end": np.inf,
}
# Exp(1) marginal law of T, a change at 0.4, U(0, 1.2) censoring
MARGINAL_DESIGN = GeneratorSpec(
    baseline=Exponential(rate=1.0),
    beta=BetaFunction(changepoints=(0.4,), values=(2.0, 0.5)),
    covariate=Bernoulli(0.5),
    censoring=UniformCensoring(upper=1.2),
    baseline_role="marginal",
)
MARGINAL_NUMBERS = {
    "role": "marginal",
    "p": 0.5,
    "cuts": [0.4],
    "values": [2.0, 0.5],
    "cum": lambda t: t,
    "haz": lambda t: 1.0,
    "at_risk": lambda t: max(0.0, 1.0 - t / 1.2),
    "end": 1.2,
}


class TestOracles:
    def test_ph_oracle_returns_true_beta(self):
        assert beta_star_oracle(PH) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("weighting", ["failure", "risk"])
    @pytest.mark.parametrize(
        "spec, numbers",
        [(HAZARD_DESIGN, HAZARD_NUMBERS), (MARGINAL_DESIGN, MARGINAL_NUMBERS)],
        ids=["hazard", "marginal"],
    )
    def test_matches_independent_quad(self, spec, numbers, weighting):
        want = _quad_limit(numbers, k=int(weighting == "risk"))
        assert beta_star_oracle(spec, weighting=weighting) == pytest.approx(
            want, abs=1e-8
        )

    # Exact limits below come from the independent Gauss-Legendre helper
    # ``_score_limit`` of tests/test_acceptance.py, which shares no code with
    # margfit.

    def test_changepoint_oracle_matches_independent_quadrature(self):
        val = beta_star_oracle(CHANGEPOINT)
        assert val == pytest.approx(0.328883061468545, abs=1e-9)

    def test_risk_weighting_exposes_partial_likelihood_drift(self):
        censored = replace(CHANGEPOINT, censoring=UniformCensoring(upper=0.7968))
        assert beta_star_oracle(censored, weighting="risk") == pytest.approx(
            0.5795411819497828, abs=1e-9
        )

    @pytest.mark.parametrize(
        "beta, censoring, weighting, want",
        [
            # beta* of the table-3 design, and the partial-likelihood limits
            # of both designs at exactly 50% censoring
            ((3.0, 0.0), NoCensoring(), "failure", 0.9685277800924982),
            (
                (1.0, 0.0),
                UniformCensoring(0.7968121300200264),
                "risk",
                0.579537118438356,
            ),
            ((3.0, 0.0), ExponentialCensoring(2.0), "risk", 1.5944681552901623),
        ],
        ids=["table3-beta-star", "table2-pl-50", "table3-pl-50"],
    )
    def test_exact_limits_of_the_table_designs(self, beta, censoring, weighting, want):
        spec = replace(
            CHANGEPOINT,
            beta=BetaFunction(changepoints=(0.2,), values=beta),
            censoring=censoring,
        )
        assert beta_star_oracle(spec, weighting=weighting) == pytest.approx(
            want, abs=1e-9
        )

    def test_failure_weighting_ignores_censoring(self):
        censored = replace(CHANGEPOINT, censoring=UniformCensoring(upper=0.8))
        assert beta_star_oracle(censored) == beta_star_oracle(CHANGEPOINT)
        assert beta_star_oracle(CHANGEPOINT, weighting="risk") == beta_star_oracle(
            CHANGEPOINT
        )

    def test_risk_weighting_with_a_bernoulli_covariate(self):
        # a million-subject score solve stalled on this design before the
        # oracle became quadrature; a constant coefficient is its own limit
        spec = GeneratorSpec(
            baseline=Exponential(rate=1.0),
            beta=BetaFunction.constant(1.0),
            covariate=Bernoulli(0.5),
            censoring=ExponentialCensoring(rate=1.0),
        )
        assert beta_star_oracle(spec, weighting="risk") == pytest.approx(1.0, abs=1e-9)

    def test_piecewise_baseline_under_censoring_is_converged(self):
        # the baseline's cuts split the quadrature where P(C >= t) bends
        spec = GeneratorSpec(
            baseline=PiecewiseExponential(cuts=(0.5, 1.5), rates=(0.5, 2.0, 1.0)),
            beta=BetaFunction(changepoints=(0.3,), values=(1.5, 0.5)),
            covariate=Bernoulli(0.4),
            censoring=ExponentialCensoring(rate=0.8),
        )
        coarse = beta_star_oracle(spec, weighting="risk")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("margfit.simulate._PIECE_NODES", 256)
            fine = beta_star_oracle(spec, weighting="risk")
        assert coarse == pytest.approx(fine, abs=1e-12)

    def test_draws_nothing_and_fits_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not sample or fit")

        samplers = ("_as_rng", "_draw_survival_times", "generate_dataset")
        for name in (*samplers, "solve_score"):
            monkeypatch.setattr(f"margfit.simulate.{name}", forbidden)
        beta_star_oracle(MARGINAL_DESIGN, weighting="risk")
        beta_star_oracle(HAZARD_DESIGN)

    def test_oracle_validation(self):
        with pytest.raises(ConfigError):
            beta_star_oracle(PH, weighting="both")


def _integral(low, high):
    """An integer that a document may write as a JSON integer or float."""
    return st.integers(low, high).flatmap(lambda k: st.sampled_from([k, float(k)]))


def _pieces(values):
    """Ascending positive cut points and one more value than cuts."""
    cuts = st.lists(st.floats(0.01, 50.0), max_size=3, unique=True).map(sorted)
    return cuts.flatmap(
        lambda c: st.tuples(
            st.just(c), st.lists(values, min_size=len(c) + 1, max_size=len(c) + 1)
        )
    )


@st.composite
def _design_documents(draw):
    """Valid study documents over every baseline, covariate and censoring law,
    with the optional keys sometimes left out."""
    positive = st.floats(0.05, 20.0)
    family = draw(st.sampled_from(["exponential", "weibull", "pwexp"]))
    if family == "exponential":
        baseline = {"rate": draw(positive)}
    elif family == "weibull":
        baseline = {"shape": draw(positive), "scale": draw(positive)}
    else:
        cuts, rates = draw(_pieces(positive))
        baseline = {"cuts": cuts, "rates": rates}
    changepoints, values = draw(_pieces(st.floats(-3.0, 3.0)))
    beta = {"changepoints": changepoints, "values": values}
    if not changepoints and draw(st.booleans()):
        beta = {"constant": values[0]}
    covariate = draw(st.sampled_from([{"kind": "uniform01"}, {"kind": "bernoulli"}]))
    if covariate["kind"] == "bernoulli":
        covariate["p"] = draw(st.floats(0.01, 0.99))
    censoring = draw(st.sampled_from(["none", "uniform", "exponential"]))
    levels = st.floats(0.0, 0.0 if censoring == "none" else 0.95)
    doc = {
        "baseline": {
            "family": family,
            **baseline,
            "role": draw(st.sampled_from(["hazard", "marginal"])),
        },
        "beta": beta,
        "covariate": covariate,
        "censoring_family": censoring,
        "target_censoring": draw(st.lists(levels, min_size=1, max_size=3)),
        "n": draw(_integral(2, 10**6)),
        "reps": draw(_integral(1, 10**4)),
        "seed": draw(_integral(0, 2**32)),
        "families_to_fit": draw(
            st.lists(st.sampled_from(["exponential", "weibull", "pwexp", "pwexp:1.5"]))
        ),
        "label": draw(st.text(max_size=8)),
    }
    if len(doc["target_censoring"]) == 1 and draw(st.booleans()):
        (doc["target_censoring"],) = doc["target_censoring"]
    for key in ("covariate", "families_to_fit", "label"):
        if draw(st.booleans()):
            del doc[key]  # each has a default
    return doc


class TestConfigFiles:
    DOC = {
        "label": "demo",
        "baseline": {"family": "exponential", "rate": 2.0, "role": "marginal"},
        "beta": {"changepoints": [0.2], "values": [1.0, 0.0]},
        "covariate": {"kind": "uniform01"},
        "censoring_family": "uniform",
        "target_censoring": [0.0, 0.5],
        "n": 100,
        "reps": 4,
        "seed": 7,
    }
    BERNOULLI = {
        "beta": {"constant": 0.5},
        "covariate": {"kind": "bernoulli", "p": 0.3},
        "censoring_family": "none",
        "target_censoring": 0.0,
    }
    PWEXP = {
        "baseline": {
            "family": "pwexp",
            "cuts": [1.0],
            "rates": [0.5, 1.5],
            "role": "hazard",
        },
        "censoring_family": "none",
        "target_censoring": 0.0,
    }

    def test_levels_expand_to_one_config_each(self):
        cfgs = study_configs_from_dict(self.DOC)
        assert [c.target_censoring for c in cfgs] == [0.0, 0.5]
        assert all(c.label == "demo" for c in cfgs)
        assert cfgs[0].spec.baseline == Exponential(rate=2.0)
        assert cfgs[0].spec.baseline_role == "marginal"

    def test_integral_floats_are_integers(self):
        cfgs = study_configs_from_dict(dict(self.DOC, n=100.0, reps=4.0, seed=7.0))
        assert cfgs == study_configs_from_dict(self.DOC)
        assert all(type(v) is int for c in cfgs for v in (c.n, c.reps, c.seed))

    def test_constant_beta_and_bernoulli(self):
        (cfg,) = study_configs_from_dict(dict(self.DOC, **self.BERNOULLI))
        assert cfg.spec.beta(123.0) == 0.5
        assert cfg.spec.covariate == Bernoulli(0.3)
        assert isinstance(cfg.spec.censoring, NoCensoring)

    def test_pwexp_baseline(self):
        (cfg,) = study_configs_from_dict(dict(self.DOC, **self.PWEXP))
        assert cfg.spec.baseline == PiecewiseExponential(cuts=(1.0,), rates=(0.5, 1.5))

    @pytest.mark.parametrize(
        "patch",
        [
            {"baseline": {"family": "gamma", "rate": 1.0}},
            {"beta": {"changepoints": [0.2], "values": [1.0]}},
            {"covariate": {"kind": "normal"}},
            {"censoring_family": "none"},  # but nonzero targets remain
            {"n": 1},
            {"n": "abc"},
            {"target_censoring": ["x"]},
            {"baseline": {"family": "exponential", "rate": "fast"}},
            {"baseline": "exponential"},
            {"beta": {"values": 3}},
            {"families_to_fit": "exponential"},  # a list, not one name
            {"beta": {"changepoints": [float("nan")], "values": [1.0, 0.0]}},
            {"baseline": {"family": "exponential", "rate": -1}},
            {"n": 100.7},
            {"seed": 1.5},
            {"reps": True},
            {"n": "100"},
            {"seed": float("inf")},
            {"target_censoring": False},
            {"target_censoring": []},
            {"beta": {"changepoints": [0.2], "values": [True, False]}},
            {"baseline": {"family": "exponential", "rate": True}},
            {"beta": {"constant": True}},
        ],
    )
    def test_bad_documents(self, patch):
        doc = dict(self.DOC, **patch)
        with pytest.raises(ConfigError):
            study_configs_from_dict(doc)

    @pytest.mark.parametrize("key", list(_KEYS))
    def test_a_boolean_at_a_scalar_key_names_it(self, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            study_configs_from_dict(dict(self.DOC, **{key: True}))

    @pytest.mark.parametrize(
        "patch, key",
        [
            ({"target_censoring": False}, "target_censoring"),
            ({"target_censoring": []}, "target_censoring"),
            ({"beta": {"changepoints": [0.2], "values": [True, False]}}, "values"),
            ({"baseline": {"family": "exponential", "rate": True}}, "rate"),
            ({"beta": {"constant": True}}, "constant"),
        ],
    )
    def test_booleans_and_empty_levels_name_their_key(self, patch, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            study_configs_from_dict(dict(self.DOC, **patch))

    def test_load_single_and_list(self, tmp_path):
        import json

        p1 = tmp_path / "one.json"
        p1.write_text(json.dumps(self.DOC))
        assert len(load_study_config(p1)) == 2
        p2 = tmp_path / "two.json"
        p2.write_text(json.dumps([self.DOC, dict(self.DOC, label="b")]))
        assert len(load_study_config(p2)) == 4

    def test_echo_reads_back_as_the_same_design(self):
        from importlib import resources

        data = resources.files("margfit.data")
        configs = [
            cfg
            for name in ("table1", "table2", "table3")
            for cfg in load_study_config(str(data / f"{name}.json"))
        ]
        assert len(configs) == 20
        for patch in (self.BERNOULLI, self.PWEXP):
            configs += study_configs_from_dict(dict(self.DOC, **patch))
        for cfg in configs:
            assert study_configs_from_dict(_config_echo(cfg)) == [cfg]

    @settings(max_examples=200, deadline=None)
    @given(doc=_design_documents())
    def test_any_valid_document_round_trips_through_json(self, doc):
        for cfg in study_configs_from_dict(doc):
            echo = json.loads(json.dumps(_config_echo(cfg)))
            assert study_configs_from_dict(echo) == [cfg]

    def test_bundled_designs_parse(self):
        from importlib import resources

        for name, n_docs in [("table1", 2), ("table2", 2), ("table3", 2)]:
            path = resources.files("margfit.data") / f"{name}.json"
            cfgs = load_study_config(str(path))
            assert len(cfgs) >= n_docs
            assert all(c.n == 1500 and c.reps == 500 for c in cfgs)
            assert all(c.seed == 20260819 for c in cfgs)


class TestResultSerialization:
    def test_json_document(self, tiny_result):
        doc = results_to_json([tiny_result])
        assert doc["schema"] == 1
        (study,) = doc["studies"]
        assert study["config"]["label"] == "tiny"
        assert study["config"]["reps"] == 3
        assert set(study["estimators"]) == {"pl", "km", "par:exponential"}
        assert study["expected_beta_family"] == pytest.approx(1.0)
        # the document must be JSON-serializable as-is
        import json

        json.dumps(doc)

    def test_csv_layout(self, tiny_result, tmp_path):
        path = tmp_path / "res.csv"
        write_results_csv([tiny_result], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header[0] == "label"
        assert "pl_mean" in header and "km_sd" in header
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["pl_mean"]) == pytest.approx(tiny_result.means["pl"])
        assert float(row["expected_beta_family"]) == pytest.approx(1.0)
