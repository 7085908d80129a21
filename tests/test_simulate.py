"""Data generator, censoring calibration, study harness and limit oracles."""

from __future__ import annotations

import json
import tracemalloc
import warnings
from collections import Counter
from dataclasses import astuple, replace
from decimal import Decimal, localcontext
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import expit, logsumexp

import margfit
import margfit.estimate as estimate_module
import margfit.simulate as simulate_module
from margfit import (
    Bernoulli,
    BetaFunction,
    ConfigError,
    Constant,
    DataError,
    Exponential,
    ExponentialCensoring,
    FitError,
    GeneratorSpec,
    KaplanMeier,
    NoCensoring,
    Parametric,
    PiecewiseExponential,
    StudyConfig,
    Uniform01,
    UniformCensoring,
    Weibull,
    beta_star_oracle,
    calibrate_censoring,
    expected_beta,
    expected_beta_family,
    generate_dataset,
    load_study_config,
    results_to_json,
    run_study,
    solve_score,
    study_configs_from_dict,
    write_results_csv,
)
from margfit._parallel import parallel_map
from margfit.marginal import _brentq
from margfit.simulate import (
    _BLOCK_ROWS,
    _CALIBRATION_STREAM,
    _KEYS,
    _REFERENCE_STREAM,
    _config_echo,
    _draw_survival_times,
    _failure_law_nodes,
    _log_sum_exp_atoms,
    _reps,
    _segment_tables,
    _sum_atoms,
)

# the censoring parameter each censored cell of the bundled tables calibrates,
# recorded from the sampler and the bisection as they stand
CALIBRATED = {
    ("table1.json", "ph-beta-1.0", "0.5"): 0.7935411315120291,
    ("table1.json", "ph-beta-0.5", "0.5"): 0.7944723925029393,
    ("table2.json", "changepoint-1-0", "0.17"): 2.9190236222639214,
    ("table2.json", "changepoint-1-0", "0.32"): 1.4780612484901212,
    ("table2.json", "changepoint-1-0", "0.5"): 0.7943211291858461,
    ("table2.json", "changepoint-3-0", "0.17"): 2.9234588965482544,
    ("table2.json", "changepoint-3-0", "0.32"): 1.4792690041358583,
    ("table2.json", "changepoint-3-0", "0.5"): 0.7953949214715976,
    ("table3.json", "changepoint-1-0", "0.17"): 0.41166654908738565,
    ("table3.json", "changepoint-1-0", "0.32"): 0.9466761971416418,
    ("table3.json", "changepoint-1-0", "0.5"): 2.002701771707507,
    ("table3.json", "changepoint-3-0", "0.17"): 0.41167981702892575,
    ("table3.json", "changepoint-3-0", "0.32"): 0.9443320586287882,
    ("table3.json", "changepoint-3-0", "0.5"): 2.005392089689849,
}

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


def _closed_form_hazard_draw(spec, z, rng):
    """The hazard-role sampler over the whole draw at once: the reference
    the block-by-block sampler must reproduce bit for bit."""
    n = z.size
    V = rng.exponential(size=n)
    bvals, Lam, *_ = _segment_tables(spec.baseline, spec.beta, spec.covariate, "hazard")
    inc = np.diff(Lam)[None, :] * np.exp(np.outer(z, bvals[:-1]))
    thr = np.concatenate([np.zeros((n, 1)), np.cumsum(inc, axis=1)], axis=1)
    idx = (V[:, None] >= thr).sum(axis=1) - 1
    M = (V - thr[np.arange(n), idx]) * np.exp(-bvals[idx] * z)
    return spec.baseline.inverse_cumulative_hazard(Lam[idx] + M)


HAZARD_CHANGEPOINT = replace(CHANGEPOINT, baseline_role="hazard")


class TestHazardRole:
    def test_zero_beta_is_plain_baseline(self):
        spec = GeneratorSpec(
            baseline=Exponential(rate=1.5), beta=BetaFunction.constant(0.0)
        )
        rng = np.random.default_rng(12)
        t = _draw_survival_times(spec, np.full(4000, 0.7), rng)
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
        t = _draw_survival_times(spec, np.full(20_000, 1.0), rng)
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
        t = _draw_survival_times(spec, np.full(4000, 0.0), rng)
        assert stats.kstest(t, "weibull_min", args=(2.0,)).pvalue > 0.01

    @pytest.mark.parametrize(
        "spec",
        [
            HAZARD_CHANGEPOINT,
            replace(
                HAZARD_CHANGEPOINT,
                baseline=Weibull(shape=1.5, scale=0.7),
                beta=BetaFunction(changepoints=(0.1, 0.4), values=(3.0, -1.0, 0.5)),
                covariate=Bernoulli(0.5),
            ),
            replace(
                HAZARD_CHANGEPOINT,
                baseline=PiecewiseExponential(cuts=(0.3,), rates=(1.0, 3.0)),
            ),
        ],
        ids=["changepoint", "weibull-3-segments", "pwexp"],
    )
    def test_blocks_match_the_whole_draw_bitwise(self, spec):
        n = 3 * _BLOCK_ROWS + 17
        z = spec.covariate.draw(np.random.default_rng(1), n)
        got = _draw_survival_times(spec, z, np.random.default_rng(2))
        want = _closed_form_hazard_draw(spec, z, np.random.default_rng(2))
        assert np.array_equal(got, want)
        if spec is HAZARD_CHANGEPOINT:
            # both coefficient segments hold rows, the later one more than a block
            early = int((want < 0.2).sum())
            assert 0 < early and n - early > _BLOCK_ROWS


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


def _marginal_segments(spec, z, V):
    """Each subject's coefficient segment and its M, located as the sampler
    locates them, with the marginal role's segment tables."""
    n = z.size
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
    return idx, M, (bvals, zq, logwq, H)


def _scipy_marginal_draw(spec, z, rng, closed_form=True):
    """The marginal-role sampler on SciPy's ``logsumexp``, one whole-array
    temporary per coefficient segment: the reference the row-block sampler
    must reproduce bit for bit. In a zero-coefficient segment every tilt is
    1, so the log-mixture is c_k - M with c_k the log-sum-exp of the
    segment's offsets; ``closed_form=False`` sums over the atoms there too."""
    V = rng.exponential(size=z.size)
    idx, M, (bvals, zq, logwq, H) = _marginal_segments(spec, z, V)
    T = np.empty(z.size)
    for k in np.unique(idx):
        m = idx == k
        if closed_form and bvals[k] == 0.0:
            logg = logsumexp(logwq - H[k]) - M[m]
        else:
            tilts = np.exp(bvals[k] * zq)
            expo = logwq[None, :] - H[k][None, :] - np.outer(M[m], tilts)
            logg = logsumexp(expo, axis=1)
        T[m] = spec.baseline.inverse_cumulative_hazard(np.minimum(-logg, 1e12))
    return T


# table2's change-point design: beta(t) = 3 on [0, 0.2), 0 after
CHANGEPOINT_3_0 = replace(
    CHANGEPOINT, beta=BetaFunction(changepoints=(0.2,), values=(3.0, 0.0))
)


class _FixedV:
    """Stands in for a generator whose Exp(1) draws are ``V``."""

    def __init__(self, V):
        self.V = np.asarray(V, dtype=float)

    def exponential(self, size):
        assert size == self.V.size
        return self.V.copy()


class TestMarginalSampler:
    """Atom-major blocks and the NumPy log-sum-exp keep the SciPy sampler's bits."""

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

    @pytest.mark.parametrize(
        "spec",
        [replace(PH, beta=BetaFunction.constant(0.0)), CHANGEPOINT_3_0],
        ids=["zero", "changepoint-3-0"],
    )
    def test_zero_segments_skip_the_atoms(self, spec, monkeypatch):
        columns = []

        def counted(a):
            columns.append(a.shape[1])
            return _log_sum_exp_atoms(a)

        monkeypatch.setattr(simulate_module, "_log_sum_exp_atoms", counted)
        n = 3 * _BLOCK_ROWS + 17
        z = spec.covariate.draw(np.random.default_rng(1), n)
        _draw_survival_times(spec, z, np.random.default_rng(2))
        V = np.random.default_rng(2).exponential(size=n)
        idx, _, (bvals, *_) = _marginal_segments(spec, z, V)
        # the first call holds one column per segment, its c_k; the others
        # hold the subjects of the nonzero segments and no one else
        assert columns[0] == bvals.size
        assert sum(columns[1:]) == np.count_nonzero(bvals[idx] != 0.0)
        if spec is CHANGEPOINT_3_0:
            assert 0 < sum(columns[1:]) == np.count_nonzero(idx == 0) < n / 2
        else:
            assert columns == [1]

    def test_closed_form_is_at_least_as_accurate_as_the_atoms(self):
        # -log g_k(M) = -log sum_q w_q e^{-H[k]_q - M} in 50-digit decimal,
        # taking the float log-weights, H and M as exact; the bound below
        # was set before the test first ran
        bound = 4e-15
        z = np.random.default_rng(5).random(600)
        V = np.random.default_rng(6).exponential(size=z.size)
        idx, M, (bvals, _, logwq, H) = _marginal_segments(CHANGEPOINT_3_0, z, V)
        zero = np.flatnonzero(idx == 1)[:400]
        assert bvals[1] == 0.0 and zero.size == 400
        M = M[zero]
        # Exponential(2) inverts -log g by halving it, which is exact
        closed = 2.0 * _draw_survival_times(CHANGEPOINT_3_0, z, _FixedV(V))[zero]
        atoms = -_log_sum_exp_atoms((logwq - H[1])[:, None] - M[None, :])
        with localcontext() as ctx:
            ctx.prec = 50
            offsets = [Decimal(a) - Decimal(h) for a, h in zip(logwq, H[1])]
            exact = [-sum((d - Decimal(m)).exp() for d in offsets).ln() for m in M]
            errors = [
                max(abs((Decimal(x) - e) / e) for x, e in zip(draw, exact))
                for draw in (closed, atoms)
            ]
        assert errors[0] <= errors[1] < bound, errors

    def test_a_zero_segment_past_underflow_keeps_the_clamp(self):
        # V far in the tail: e^{-M} underflows to 0 from M = 746 on, and past
        # 1e12 the sampler clamps -log g, as it does on the atoms' path
        V = [50.0, 800.0, 1e6, 2e12, 1e300]
        z = np.linspace(0.0, 1.0, len(V))
        got = _draw_survival_times(CHANGEPOINT_3_0, z, _FixedV(V))
        atoms = _scipy_marginal_draw(CHANGEPOINT_3_0, z, _FixedV(V), closed_form=False)
        np.testing.assert_allclose(got[:3], atoms[:3], rtol=2e-15)
        assert np.all(got[:3] > 0.2) and np.all(got[:3] < 1e6)
        assert np.array_equal(got[3:], [5e11, 5e11])
        assert np.array_equal(got[3:], atoms[3:])

    @pytest.mark.parametrize("q", [1, 2, 5, 8, 13, 64, 200])
    def test_log_sum_exp_atoms_matches_scipy_bitwise(self, q):
        rng = np.random.default_rng(q)
        a = rng.normal(size=(q, 300)) * rng.choice([1e-3, 1.0, 30.0], size=300)
        *_, logwq, _ = _segment_tables(
            CHANGEPOINT.baseline, CHANGEPOINT.beta, Uniform01(), "marginal"
        )
        if q == logwq.size:
            # the sampler's symmetric Uniform01 log-weights: tied maxima
            a[:, 7:57] = logwq[:, None] - rng.random(50)
            tied = a[:, 7:57]
            assert np.all(np.count_nonzero(tied == tied.max(axis=0), axis=0) == 2)
        a[:, 0] = -np.inf
        a[q // 2, 1] = np.nan
        a[q - 1, 2] = np.inf
        a[:, 3] = 0.5  # every atom at the maximum
        a[[0, q - 1], 4] = a[:, 4].max() + 1.0  # two tied maxima (one if q = 1)
        a[:, 5] = np.linspace(-800.0, 5.0, q)  # spread above 700
        a[:, 6] = np.linspace(1.0, 1.0 + 1e-15, q)  # shifted terms near 1
        # the sampler's SciPy reference holds its subjects in C-ordered rows,
        # and NumPy's sum order depends on the layout
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = logsumexp(np.ascontiguousarray(a.T), axis=1)
        got = _log_sum_exp_atoms(a.copy())
        assert np.array_equal(got, want, equal_nan=True)
        assert got[0] == -np.inf and np.isnan(got[1]) and got[2] == np.inf

    def test_numpy_row_sum_order_is_the_lane_emulation(self):
        # _sum_atoms adds columns in the order NumPy's pairwise sum adds a
        # contiguous row; spread magnitudes make any other order round apart
        rng = np.random.default_rng(4)
        for q in (1, 2, 5, 7, 8, 9, 13, 64, 127, 128, 129, 200, 300):
            a = rng.lognormal(sigma=10.0, size=(q, 500))
            rows = np.ascontiguousarray(a.T).sum(axis=1)
            assert np.array_equal(_sum_atoms(a), rows), (
                f"q = {q}: NumPy {np.__version__}'s contiguous row sum no longer "
                "adds in the order _sum_atoms emulates (8 lanes, then the tail; "
                "halving above 128), on which the marginal sampler's SciPy bits rest"
            )

    def test_study_draws_hold_one_block(self):
        # NumPy reports its buffers to tracemalloc. A 200,000-subject draw
        # holds its z, V and T (and the calibration its uniforms) at 1.6 MB
        # each, plus one block; a segment search over the whole draw at
        # once takes each peak to 24 MB, and a whole-array (200k, 64)
        # temporary alone would be 100 MB
        config = _changepoint_3_0(0.5)
        peaks = []
        tracemalloc.start()
        try:
            param = calibrate_censoring(
                config.spec,
                config.target_censoring,
                rng=np.random.default_rng([config.seed, _CALIBRATION_STREAM]),
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            spec = replace(config.spec, censoring=type(config.spec.censoring)(param))
            expected_beta(
                spec, rng=np.random.default_rng([config.seed, _REFERENCE_STREAM])
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            expected_beta(CHANGEPOINT, rng=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) <= 12e6, [f"{p / 1e6:.1f} MB" for p in peaks]


def _monotone_functions(rng, count):
    """Seeded monotone functions with their brackets: the marginal segment
    gap of ``_segment_tables`` and three smooth shapes around a root r."""
    for i in range(count):
        r, c = rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0)
        lo, hi = r - rng.uniform(0.01, 5.0), r + rng.uniform(0.01, 5.0)
        if i % 4 == 0:
            logw = np.log(rng.dirichlet(np.ones(8)))
            ez = np.exp(c * rng.uniform(-1.0, 1.0, 8))
            target = rng.uniform(0.01, 0.99)

            def f(x):
                return float(np.exp(logw - x * ez).sum()) - target

            lo, hi = 0.0, 200.0
        elif i % 4 == 1:

            def f(x):
                return float(np.tanh(x - r)) + c * (x - r)

        elif i % 4 == 2:

            def f(x):
                return (x - r) ** 3 + c * (x - r)

        else:

            def f(x):
                return float(np.log1p(np.exp(c * r)) - np.log1p(np.exp(c * x)))

        yield f, lo, hi


class TestBrentq:
    """``_brentq`` is SciPy's ``brentq`` ported, so its roots carry its bits."""

    @pytest.mark.parametrize(
        "tolerances",
        [dict(xtol=1e-15, rtol=8.9e-16, maxiter=200), dict(xtol=1e-13)],
        ids=["segment-tables", "beta-star-oracle"],
    )
    def test_matches_scipy_bitwise(self, tolerances):
        rng = np.random.default_rng(11)
        for f, a, b in _monotone_functions(rng, 2000):
            got = _brentq(f, a, b, **tolerances)
            want = brentq(f, a, b, **tolerances)
            assert type(got) is float
            assert got == want and np.signbit(got) == np.signbit(want), (a, b)

    def test_an_end_at_a_root_is_returned(self):
        for a, b in ((2.0, 5.0), (-1.0, 2.0)):
            got = _brentq(lambda x: x - 2.0, a, b, xtol=1e-13)
            assert got == brentq(lambda x: x - 2.0, a, b, xtol=1e-13) == 2.0

    def test_ends_of_one_sign_are_a_fit_error(self):
        with pytest.raises(FitError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-13)
        with pytest.raises(FitError, match="NaN"):
            _brentq(lambda x: np.nan, -1.0, 1.0, xtol=1e-13)

    def test_running_out_of_iterations_is_a_fit_error(self):
        def f(x):
            return x**3 - 0.3

        with pytest.raises(RuntimeError):
            brentq(f, 0.0, 4.0, xtol=1e-15, maxiter=3)
        with pytest.raises(FitError, match="did not converge in 3 iterations"):
            _brentq(f, 0.0, 4.0, xtol=1e-15, maxiter=3)
        assert _brentq(f, 0.0, 4.0, xtol=1e-15) == brentq(f, 0.0, 4.0, xtol=1e-15)


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

    def test_calibration_makes_one_draw(self, monkeypatch):
        draws = Counter()
        draw = simulate_module._draw_survival_times

        def counted(*args):
            draws["calls"] += 1
            return draw(*args)

        monkeypatch.setattr(simulate_module, "_draw_survival_times", counted)
        spec = replace(CHANGEPOINT, censoring=UniformCensoring(upper=1.0))
        calibrate_censoring(spec, 0.5, rng=np.random.default_rng(1))
        assert draws == {"calls": 1}

    @pytest.mark.parametrize("cell", sorted(CALIBRATED), ids="-".join)
    def test_bundled_cells_calibrate_to_recorded_parameters(self, cell):
        table, label, target = cell
        config = next(
            c
            for c in load_study_config(Path(margfit.__file__).parent / "data" / table)
            if c.label == label and c.target_censoring == float(target)
        )
        (param,) = astuple(_calibrated(config).censoring)
        assert param == CALIBRATED[cell]

    @pytest.mark.parametrize("miss, fails", [(0.004, False), (0.006, True)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_calibration_check_is_the_exact_fraction(
        self, monkeypatch, miss, fails, sign
    ):
        # the quadrature's failure weights, rescaled so that the exact
        # censored fraction misses the target by ``miss``
        nodes = simulate_module._failure_law_nodes

        def missing(spec, law):
            w, *rest = nodes(spec, law)
            return (w * ((0.5 - sign * miss) / w.sum()), *rest)

        spec = replace(CHANGEPOINT, censoring=UniformCensoring(upper=1.0))
        want = calibrate_censoring(spec, 0.5, rng=np.random.default_rng(1))
        monkeypatch.setattr(simulate_module, "_failure_law_nodes", missing)
        if fails:
            with pytest.raises(FitError, match="calibration check failed"):
                calibrate_censoring(spec, 0.5, rng=np.random.default_rng(1))
        else:
            assert calibrate_censoring(spec, 0.5, rng=np.random.default_rng(1)) == want


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
    def test_benchmark_study_reproduces_its_pinned_reference(self):
        # the benchmark's study design and seed, checked against its recorded
        # outputs to the benchmark's own tolerance; the file is only read
        ref_file = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        ref = json.loads(ref_file.read_text())["study"]
        res = run_study(replace(_changepoint_3_0(0.5), seed=20260819, reps=500))
        got = {f"mean.{k}": v for k, v in res.means.items()}
        got |= {f"sd.{k}": v for k, v in res.sds.items()}
        got |= dict(
            censoring_param=res.censoring_param,
            realized_censoring=res.realized_censoring,
            reference_family=res.reference_family,
            reference_mc=res.reference_mc,
            n_failed=float(res.n_failed),
        )
        assert set(got) == set(ref)
        for key, want in ref.items():
            assert abs(got[key] - want) <= 1e-12 * max(1.0, abs(want)), key

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

    def test_jobs_below_one_are_refused(self):
        config = StudyConfig(spec=PH, n=20, reps=2, seed=0)
        with pytest.raises(ConfigError, match="jobs must be at least 1"):
            run_study(config, jobs=0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            StudyConfig(spec=PH, n=1, reps=10, seed=0)
        with pytest.raises(ConfigError):
            StudyConfig(spec=PH, n=10, reps=0, seed=0)
        for seed in (-5, 1.5, "7", True):
            with pytest.raises(ConfigError, match="seed"):
                StudyConfig(spec=PH, n=10, reps=10, seed=seed)
        # built in code, a size must be an integer itself (a document's 1500.0
        # is converted by its reader); True is not a size of 1
        for bad in (50.5, 2.5, True, "7"):
            with pytest.raises(ConfigError, match="n must be an integer"):
                StudyConfig(spec=PH, n=bad, reps=10, seed=0)
            with pytest.raises(ConfigError, match="reps must be an integer"):
                StudyConfig(spec=PH, n=10, reps=bad, seed=0)
        assert StudyConfig(spec=PH, n=np.int64(10), reps=np.int32(3), seed=0).n == 10
        with pytest.raises(ConfigError):
            StudyConfig(spec=PH, n=10, reps=10, seed=0, target_censoring=1.0)
        with pytest.raises(ConfigError):
            StudyConfig(spec=PH, n=10, reps=10, seed=0, families_to_fit=("gamma",))


def _solved_one_at_a_time(config, spec):
    """The study's replications with each estimator solved alone by ``solve_score``.

    Rows (rep, values, realized censoring, failures) as the study runner's
    workers return them; ``spec`` carries the calibrated censoring.
    """
    schemes = {"pl": Constant(), "km": KaplanMeier()}
    schemes.update({f"par:{f}": Parametric(f) for f in config.families_to_fit})
    rows = []
    for rep in range(config.reps):
        data = generate_dataset(spec, config.n, np.random.default_rng([config.seed, rep]))
        values, fails = {}, []
        for name, scheme in schemes.items():
            try:
                values[name] = float(solve_score(data, scheme).beta[0])
            except (FitError, DataError) as exc:
                fails.append((name, str(exc)))
        rows.append((rep, values, 1.0 - float(np.mean(data.status)), fails))
    return rows


def _study_rows(spec, names, config):
    """The rows (rep, values, realized censoring, failures) of ``config``'s
    replications, as the study runner solves them under ``spec``."""
    rows = parallel_map(partial(_reps, spec, names, config.n), config.seed, config.reps, 1)
    return [(rep, *row) for rep, row in enumerate(rows)]


def _calibrated(config):
    """``config``'s generator with the censoring parameter its study calibrates."""
    if config.target_censoring == 0.0:
        return replace(config.spec, censoring=NoCensoring())
    param = calibrate_censoring(
        config.spec,
        config.target_censoring,
        rng=np.random.default_rng([config.seed, _CALIBRATION_STREAM]),
    )
    return replace(config.spec, censoring=type(config.spec.censoring)(param))


def _changepoint_3_0(target):
    path = Path(margfit.__file__).parent / "data" / "table2.json"
    return next(
        c
        for c in load_study_config(path)
        if c.label == "changepoint-3-0" and c.target_censoring == target
    )


# three subjects at 30% uniform censoring: few events, often separated
TINY_WEIBULL = StudyConfig(
    spec=GeneratorSpec(
        baseline=Exponential(rate=1.4),
        beta=BetaFunction.constant(0.5),
        covariate=Uniform01(),
        censoring=UniformCensoring(1.0),
    ),
    n=3,
    reps=400,
    seed=7,
    target_censoring=0.3,
    families_to_fit=("weibull",),
)


class TestBatchedEstimators:
    """A replication's estimators are the rows of one batched Newton: each
    must get, bit for bit, the estimate or the failure it gets alone."""

    def assert_study_matches(self, config, res):
        rows = _solved_one_at_a_time(config, _calibrated(config))
        failures = tuple(
            (rep, name, msg) for rep, _, _, fails in rows for name, msg in fails
        )
        assert res.failures == failures
        for name, est in res.estimates.items():
            alone = np.array([values.get(name, np.nan) for _, values, _, _ in rows])
            assert est.tobytes() == alone.tobytes(), name
        ok = np.ones(config.reps, dtype=bool)
        ok[[rep for rep, _, _ in failures]] = False
        realized = np.array([frac for _, _, frac, _ in rows])
        assert res.realized_censoring == float(np.mean(realized[ok]))
        return rows

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_changepoint_design(self, jobs):
        config = replace(_changepoint_3_0(0.5), n=300, reps=12)
        self.assert_study_matches(config, run_study(config, jobs=jobs))

    def test_failed_replication_of_a_tiny_bernoulli_study(self):
        spec = GeneratorSpec(
            baseline=Exponential(rate=1.0),
            beta=BetaFunction.constant(0.5),
            covariate=Bernoulli(0.5),
        )
        config = StudyConfig(spec=spec, n=10, reps=400, seed=5)
        rows = self.assert_study_matches(config, run_study(config))
        # all ten covariates of rep 9 are equal: every estimator fails there
        assert [name for name, _ in rows[9][3]] == ["pl", "km", "par:exponential"]

    def test_a_failing_marginal_fails_its_row_alone(self):
        # with about five events in twelve subjects the Weibull fit sometimes
        # lacks two distinct event times, and the cut at 0.5 often leaves an
        # interval without events; the other estimators stand. So many
        # failures abort the study, so its replications are compared as the
        # study's workers return them, and the abort message as well
        spec = GeneratorSpec(
            baseline=Weibull(shape=6.0, scale=0.55),
            beta=BetaFunction.constant(0.5),
            covariate=Uniform01(),
            censoring=UniformCensoring(1.0),
        )
        families = ("exponential", "weibull", "pwexp:0.5")
        config = StudyConfig(
            spec=spec,
            n=12,
            reps=400,
            seed=7,
            target_censoring=0.5,
            families_to_fit=families,
        )
        spec = _calibrated(config)
        names = ["pl", "km", *(f"par:{f}" for f in families)]
        rows = _solved_one_at_a_time(config, spec)
        assert _study_rows(spec, names, config) == rows
        others = {"pl", "km", "par:exponential"}
        weibull_alone = [
            rep
            for rep, values, _, fails in rows
            if "par:weibull" in dict(fails) and others <= set(values)
        ]
        assert weibull_alone
        failures = [(rep, name, msg) for rep, _, _, fails in rows for name, msg in fails]
        failed = len({rep for rep, _, _ in failures})
        rep, name, msg = failures[0]
        want = f"{failed}/400 replications failed (> 1%): rep {rep} [{name}]: {msg}"
        with pytest.raises(FitError) as err:
            run_study(config)
        assert str(err.value) == want

    def test_underflowing_weibull_fit_fails_its_replication(self):
        # rep 376's event times 0.5619 and 0.5628 put the shape's root near
        # 1440, where the Weibull profile's sums of t**shape underflow; that
        # fails its estimator, not the study
        spec = _calibrated(TINY_WEIBULL)
        rng = np.random.default_rng([7, 376])
        [(values, _, fails)] = _reps(spec, ["pl", "km", "par:weibull"], 3, [rng])
        assert set(values) == {"pl", "km"}
        [(name, msg)] = fails
        assert name == "par:weibull"
        assert msg.startswith("degenerate Weibull profile likelihood")
        with pytest.raises(FitError, match=r"replications failed \(> 1%\)"):
            run_study(TINY_WEIBULL)

    @pytest.mark.parametrize("design", ["tiny-weibull", "changepoint-3-0"])
    def test_tiny_separated_designs_raise_no_warnings(self, design):
        # Newton's trial steps on separated data overflow exp(beta z), and
        # the step halving rejects them; the replications must run under
        # error::RuntimeWarning and give what they give with warnings ignored
        if design == "tiny-weibull":
            config = TINY_WEIBULL
        else:
            config = replace(
                _changepoint_3_0(0.5),
                n=12,
                reps=300,
                seed=7,
                families_to_fit=("exponential", "weibull", "pwexp:0.5"),
            )
        spec = _calibrated(config)
        names = ["pl", "km", *(f"par:{f}" for f in config.families_to_fit)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            strict = _study_rows(spec, names, config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            quiet = _study_rows(spec, names, config)
        assert repr(strict) == repr(quiet)

    @pytest.mark.parametrize(
        "families", [("exponential",), ("exponential", "weibull", "pwexp:0.3")]
    )
    def test_one_kernel_and_one_newton_per_replication(self, monkeypatch, families):
        counts = Counter()
        build, newton = estimate_module._Kernel.__init__, estimate_module._newton

        def counted_build(self, *args, **kwargs):
            counts["kernels"] += 1
            build(self, *args, **kwargs)

        def counted_newton(*args, **kwargs):
            counts["newtons"] += 1
            return newton(*args, **kwargs)

        monkeypatch.setattr(estimate_module._Kernel, "__init__", counted_build)
        monkeypatch.setattr(estimate_module, "_newton", counted_newton)
        config = StudyConfig(spec=PH, n=200, reps=4, seed=3, families_to_fit=families)
        res = run_study(config, jobs=1)
        assert res.n_failed == 0 and len(res.estimates) == 2 + len(families)
        assert counts == {"kernels": 4, "newtons": 4}


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

    def test_a_segment_past_all_mass_adds_no_nodes(self):
        # exp(-800) underflows: the failure law has no mass left at the
        # changepoint, so beta = 2 after it gets no quadrature node
        spec = GeneratorSpec(
            baseline=Exponential(rate=1.0),
            beta=BetaFunction(changepoints=(800.0,), values=(0.5, 2.0)),
            covariate=Bernoulli(0.5),
            censoring=ExponentialCensoring(rate=1.0),
        )
        w, b, _, _ = _failure_law_nodes(spec, NoCensoring())
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert set(b) == {0.5}
        uncensored = replace(spec, censoring=NoCensoring())
        for design, weighting in ((uncensored, "failure"), (uncensored, "risk"), (spec, "risk")):
            assert beta_star_oracle(design, weighting) == pytest.approx(0.5, abs=1e-12)

    def test_draws_nothing_and_fits_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not sample or fit")

        samplers = ("_as_rng", "_draw_survival_times", "generate_dataset")
        # the study runner's fit entry: one kernel per replication, one fit
        for name in (*samplers, "_Kernel", "_fit"):
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
            {"seed": -5},  # default_rng refuses it
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

    @pytest.mark.parametrize(
        "patch, key",
        [
            ({"target_censorship": [0.5]}, "target_censorship"),
            ({"familes_to_fit": ["weibull"]}, "familes_to_fit"),
            (
                {"baseline": {"family": "exponential", "rate": 2.0, "rol": "marginal"}},
                "rol",
            ),
            ({"covariate": {"kind": "uniform01", "p": 0.3}}, "p"),
            ({"beta": {"constant": 1.0, "values": [1.0, 0.0]}}, "values"),
        ],
        ids=["document", "families", "baseline", "covariate", "mixed-beta"],
    )
    def test_unknown_keys_are_named(self, patch, key):
        """A misspelt key would otherwise fall back to a default unseen."""
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
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


def _study_file(tmp_path, text):
    path = tmp_path / "study.json"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda tmp_path: BetaFunction.constant(np.nan),
            "coefficient values must be finite",
            id="beta-value-nan",
        ),
        pytest.param(
            lambda tmp_path: Bernoulli(1.0), r"p must be in \(0, 1\)", id="bernoulli-p"
        ),
        pytest.param(
            lambda tmp_path: UniformCensoring(0.0),
            "upper bound must be positive",
            id="uniform-upper",
        ),
        pytest.param(
            lambda tmp_path: ExponentialCensoring(-1.0),
            "rate must be positive",
            id="exponential-rate",
        ),
        pytest.param(
            lambda tmp_path: replace(PH, beta=1.0),
            "beta must be a BetaFunction",
            id="spec-beta-float",
        ),
        pytest.param(
            lambda tmp_path: generate_dataset(PH, 1, np.random.default_rng(0)),
            r"need n >= 2",
            id="dataset-n-1",
        ),
        *(
            pytest.param(
                lambda tmp_path, n=n: generate_dataset(PH, n, np.random.default_rng(0)),
                f"n must be an integer, got {n!r}",
                id=f"dataset-n-{type(n).__name__}",
            )
            for n in (2.5, "10", True)
        ),
        pytest.param(
            lambda tmp_path: load_study_config(_study_file(tmp_path, "{")),
            "invalid JSON in",
            id="file-not-json",
        ),
        pytest.param(
            lambda tmp_path: load_study_config(
                _study_file(tmp_path, json.dumps([TestConfigFiles.DOC, 1]))
            ),
            "entries must be JSON objects",
            id="file-list-of-non-objects",
        ),
        pytest.param(
            lambda tmp_path: study_configs_from_dict(
                {k: v for k, v in TestConfigFiles.DOC.items() if k != "n"}
            ),
            "study config is missing key 'n'",
            id="document-without-n",
        ),
        pytest.param(
            lambda tmp_path: write_results_csv([], tmp_path / "res.csv"),
            "no results to write",
            id="no-results",
        ),
    ],
)
def test_input_checks_are_config_errors(call, message, tmp_path):
    with pytest.raises(ConfigError, match=message):
        call(tmp_path)
