"""Marginal survival models: step curves, parametric fits, curve file IO."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from margfit import (
    ConvergenceError,
    DataError,
    Exponential,
    FitError,
    PiecewiseExponential,
    StepSurvival,
    SurvivalDataset,
    Weibull,
    fit_exponential,
    fit_piecewise_exponential,
    fit_weibull,
    kaplan_meier,
    load_external_curve,
    save_curve,
)
import margfit.marginal as marginal_module
from margfit.marginal import _expand


def make(time, status):
    time = np.asarray(time, dtype=float)
    return SurvivalDataset(
        time=time, status=np.asarray(status), covariates=np.zeros((time.size, 1))
    )


class TestStepSurvival:
    def test_left_continuous_evaluation(self):
        s = StepSurvival(np.array([1.0, 2.0]), np.array([0.8, 0.5]))
        # value at a jump point is the value from the left
        assert s.survival(0.0) == 1.0
        assert s.survival(1.0) == 1.0
        assert s.survival(1.5) == 0.8
        assert s.survival(2.0) == 0.8
        assert s.survival(2.5) == 0.5
        assert np.array_equal(s.survival(np.array([0.5, 1.0, 3.0])), [1.0, 1.0, 0.5])

    def test_empty_curve_is_one(self):
        s = StepSurvival(np.empty(0), np.empty(0))
        assert s.survival(123.0) == 1.0

    @pytest.mark.parametrize(
        "t,v",
        [
            ([2.0, 1.0], [0.9, 0.8]),  # not ascending
            ([1.0, 1.0], [0.9, 0.8]),  # duplicate jump
            ([1.0], [1.5]),  # above one
            ([1.0, 2.0], [0.5, 0.9]),  # increasing
            ([-1.0], [0.5]),  # negative time
            ([1.0], [np.nan]),  # NaN value
            ([np.nan], [0.5]),  # NaN time
            ([1.0, np.inf], [0.9, 0.8]),  # infinite time
            ([1.0, 2.0], [0.9]),  # one value short
            ([[1.0]], [[0.9]]),  # not 1-d
        ],
    )
    def test_validation(self, t, v):
        with pytest.raises(DataError):
            StepSurvival(np.asarray(t, dtype=float), np.asarray(v, dtype=float))


class TestKaplanMeier:
    def test_hand_example(self):
        # times 1, 2, 2, 3, 4 with statuses 1, 0, 1, 1, 0
        km = kaplan_meier(make([1, 2, 2, 3, 4], [1, 0, 1, 1, 0]))
        assert km.jump_times.tolist() == [1.0, 2.0, 3.0]
        assert np.allclose(km.values, [4 / 5, 4 / 5 * 3 / 4, 4 / 5 * 3 / 4 * 1 / 2])

    def test_uncensored_equals_empirical(self, uncensored_sample):
        km = kaplan_meier(uncensored_sample)
        grid = np.linspace(0.0, uncensored_sample.time.max() * 1.1, 211)
        # with no censoring the product-limit curve is (1/n) #{T_i >= t}
        emp = (uncensored_sample.time[None, :] >= grid[:, None]).mean(axis=1)
        assert np.allclose(km.survival(grid), emp, atol=1e-12)

    def test_all_censored_is_constant_one(self):
        km = kaplan_meier(make([1, 2, 3], [0, 0, 0]))
        assert km.survival(10.0) == 1.0
        assert km.jump_times.size == 0

    def test_last_observation_censored_holds_level(self):
        km = kaplan_meier(make([1, 2, 3], [1, 1, 0]))
        assert km.survival(100.0) == pytest.approx(2 / 3 * 1 / 2)

    def test_matches_a_tally_over_distinct_times_bitwise(
        self, leukemia, censored_sample
    ):
        # deaths and at-risk counts tallied per distinct time of np.unique
        tied = make(np.ceil(censored_sample.time * 10.0) / 10.0, censored_sample.status)
        for data in (leukemia, censored_sample, tied):
            times, inverse = np.unique(data.time, return_inverse=True)
            deaths = np.bincount(inverse, weights=data.status.astype(float))
            leaving = np.cumsum(np.bincount(inverse))
            at_risk = data.n - np.concatenate(([0], leaving[:-1]))
            keep = deaths > 0
            km = kaplan_meier(data)
            assert km.jump_times.tobytes() == times[keep].tobytes()
            want = np.cumprod(1.0 - deaths[keep] / at_risk[keep])
            assert km.values.tobytes() == want.tobytes()


class TestParametricModels:
    def test_exponential_forms(self):
        m = Exponential(rate=2.0)
        assert m.survival(0.5) == pytest.approx(np.exp(-1.0))
        assert m.cumulative_hazard(3.0) == pytest.approx(6.0)
        assert m.inverse_cumulative_hazard(6.0) == pytest.approx(3.0)

    def test_weibull_forms(self):
        m = Weibull(shape=2.0, scale=3.0)
        t = np.array([0.5, 1.0, 4.0])
        assert np.allclose(m.survival(t), np.exp(-((t / 3.0) ** 2)))
        assert m.inverse_cumulative_hazard(m.cumulative_hazard(1.7)) == pytest.approx(1.7)

    def test_piecewise_exponential_forms(self):
        m = PiecewiseExponential(cuts=(1.0, 2.0), rates=(0.5, 1.0, 0.25))
        assert m.cumulative_hazard(0.5) == pytest.approx(0.25)
        assert m.cumulative_hazard(1.5) == pytest.approx(0.5 + 0.5)
        assert m.cumulative_hazard(3.0) == pytest.approx(0.5 + 1.0 + 0.25)
        for u in (0.1, 0.6, 1.4, 2.1):
            assert m.inverse_cumulative_hazard(m.cumulative_hazard(u)) == pytest.approx(u)

    def test_piecewise_single_segment_matches_exponential(self):
        pw = PiecewiseExponential(cuts=(), rates=(0.7,))
        ex = Exponential(rate=0.7)
        t = np.linspace(0, 5, 11)
        assert np.allclose(pw.survival(t), ex.survival(t))

    def test_validation(self):
        with pytest.raises(DataError):
            Exponential(rate=0.0)
        with pytest.raises(DataError):
            Weibull(shape=-1.0, scale=1.0)
        with pytest.raises(DataError):
            PiecewiseExponential(cuts=(2.0, 1.0), rates=(1.0, 1.0, 1.0))
        with pytest.raises(DataError):
            PiecewiseExponential(cuts=(1.0,), rates=(1.0,))  # wrong count
        with pytest.raises(DataError):
            PiecewiseExponential(cuts=(np.nan,), rates=(1.0, 1.0))
        with pytest.raises(DataError):
            PiecewiseExponential(cuts=(1.0,), rates=(1.0, np.nan))
        with pytest.raises(DataError):
            PiecewiseExponential(cuts=(1.0,), rates=(1.0, np.inf))
        with pytest.raises(DataError):
            Exponential(rate=np.inf)
        with pytest.raises(DataError):
            Weibull(shape=1.0, scale=np.inf)


class TestExponentialFits:
    def test_events_over_exposure(self):
        d = make([2, 3, 5], [1, 0, 1])
        assert fit_exponential(d).rate == pytest.approx(2 / 10)

    def test_mle_consistency(self):
        rng = np.random.default_rng(5)
        t = rng.exponential(scale=0.5, size=4000)
        c = rng.exponential(scale=0.5, size=4000)
        d = SurvivalDataset(
            time=np.minimum(t, c),
            status=(t <= c).astype(int),
            covariates=np.zeros((4000, 1)),
        )
        # MLE of the rate: 3 sigma of sqrt(events)/exposure around truth
        se = np.sqrt(d.n_events) / d.time.sum()
        assert abs(fit_exponential(d).rate - 2.0) < 3 * se

    def test_errors(self):
        with pytest.raises(DataError):
            fit_exponential(make([1, 2], [0, 0]))


class TestWeibullFit:
    def test_recovers_parameters(self):
        rng = np.random.default_rng(21)
        t = 3.0 * rng.weibull(2.0, size=5000)
        c = rng.uniform(0, 6.0, size=5000)
        d = SurvivalDataset(
            time=np.minimum(t, c),
            status=(t <= c).astype(int),
            covariates=np.zeros((5000, 1)),
        )
        m = fit_weibull(d)
        assert abs(m.shape - 2.0) < 0.1
        assert abs(m.scale - 3.0) < 0.15

    def test_profile_score_is_zero_at_solution(self):
        rng = np.random.default_rng(8)
        t = rng.weibull(1.5, size=400)
        d = make(t, np.ones(400, dtype=int))
        m = fit_weibull(d)
        # stationarity of the profile log-likelihood in the shape
        def prof(k):
            s = (np.sum(t**k) / 400) ** (1 / k)
            return np.sum(
                np.log(k) - k * np.log(s) + (k - 1) * np.log(t) - (t / s) ** k
            )
        eps = 1e-5
        deriv = (prof(m.shape + eps) - prof(m.shape - eps)) / (2 * eps)
        assert abs(deriv) < 1e-3

    def test_zero_time_censored_subjects_carry_no_information(self, leukemia):
        # subjects censored at t = 0 have no log t; the fit leaves them out
        with_zeros = SurvivalDataset(
            time=np.append(leukemia.time, [0.0, 0.0]),
            status=np.append(leukemia.status, [0, 0]),
            covariates=np.vstack([leukemia.covariates, [[0.0], [1.0]]]),
        )
        assert fit_weibull(with_zeros) == fit_weibull(leukemia)

    def test_needs_two_distinct_event_times(self):
        with pytest.raises(FitError, match="two distinct"):
            fit_weibull(make([3, 3, 3, 5], [1, 1, 1, 0]))

    @pytest.mark.parametrize("scale", [0.1, 100.0])
    def test_degenerate_profile_is_a_fit_error(self, scale):
        # two close event times put the shape's root near 477, where t**shape
        # underflows (times below 0.1) or overflows (times above 100); a
        # study fails that replication alone
        t = scale * np.array([0.2809, 0.3768, 0.3787])
        with pytest.raises(FitError, match="degenerate Weibull profile likelihood"):
            fit_weibull(make(t, [0, 1, 1]))

    def test_shape_is_scale_free(self):
        # the same record, in a unit ten times smaller, is in the float range
        # at its root shape near 477 as well
        t = np.array([0.2809, 0.3768, 0.3787])
        one, ten = (fit_weibull(make(scale * t, [0, 1, 1])) for scale in (1.0, 10.0))
        assert ten.shape == pytest.approx(one.shape, rel=1e-12, abs=0.0)
        assert ten.scale == pytest.approx(10.0 * one.scale, rel=1e-12, abs=0.0)

    def test_profile_score_vanishes_at_the_fitted_shape(self):
        # 200 samples of 1500 Weibull(1.4, 3) times under U(0, 6) censoring;
        # the profile score, summed in extended precision, at the fitted shape
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(200):
            t = 3.0 * rng.weibull(1.4, size=1500)
            c = rng.uniform(0.0, 6.0, size=1500)
            time, status = np.minimum(t, c), (t <= c).astype(int)
            k = np.longdouble(fit_weibull(make(time, status)).shape)
            logt = np.log(time.astype(np.longdouble))
            tk = np.exp(k * logt)
            g = 1 / k + logt[status == 1].mean() - (tk * logt).sum() / tk.sum()
            worst = max(worst, float(abs(g)))
        assert worst <= 1e-12

    def test_the_score_is_evaluated_once_per_shape(self, leukemia, monkeypatch):
        # both bracket searches start at k = 1, and Brent's method starts at
        # the bracket's ends: the shapes repeat, their evaluations must not.
        # Every evaluation of the score checks its sums with math.isfinite
        want = fit_weibull(leukemia)
        shapes, evaluations = [], []
        expand, brentq, isfinite = marginal_module._expand, marginal_module._brentq, math.isfinite

        def seen(f):
            def g(k):
                shapes.append(k)
                return f(k)

            return g

        def counted(x):
            evaluations.append(x)
            return isfinite(x)

        monkeypatch.setattr(marginal_module, "_expand", lambda f, *a: expand(seen(f), *a))
        monkeypatch.setattr(
            marginal_module, "_brentq", lambda f, *a, **kw: brentq(seen(f), *a, **kw)
        )
        monkeypatch.setattr(
            marginal_module, "math", SimpleNamespace(**{**vars(math), "isfinite": counted})
        )
        assert fit_weibull(leukemia) == want
        assert len(shapes) > len(set(shapes))
        assert len(evaluations) == len(set(shapes))


def test_a_bracket_not_found_in_200_tries_is_a_fit_error():
    tried = []
    with pytest.raises(FitError, match="could not bracket the answer"):
        _expand(lambda x: tried.append(x), 2.0, "the answer")
    assert tried == [2.0**j for j in range(200)]


class TestPiecewiseFit:
    def test_occurrence_exposure_by_hand(self):
        # one cut at 2: exposures 2+2+1 = 5 and 1+0+0 = 1; deaths 1 and 1
        d = make([1, 3, 2], [1, 1, 0])
        m = fit_piecewise_exponential(d, cuts=(2.0,))
        assert m.rates == pytest.approx((1 / 5, 1 / 1))

    def test_no_cuts_is_exponential(self):
        d = make([2, 3, 5], [1, 0, 1])
        m = fit_piecewise_exponential(d)
        assert isinstance(m, Exponential)
        assert m.rate == pytest.approx(0.2)

    def test_recovers_piecewise_design(self):
        rng = np.random.default_rng(9)
        truth = PiecewiseExponential(cuts=(1.0, 2.0), rates=(0.25, 1.0, 0.25))
        u = rng.exponential(size=6000)
        t = np.array([truth.inverse_cumulative_hazard(x) for x in u])
        d = make(t, np.ones(6000, dtype=int))
        m = fit_piecewise_exponential(d, cuts=(1.0, 2.0))
        assert np.allclose(m.rates, truth.rates, rtol=0.12)

    def test_zero_exposure_interval(self):
        d = make([0.5, 0.7], [1, 1])
        with pytest.raises(FitError, match="zero exposure"):
            fit_piecewise_exponential(d, cuts=(5.0,))

    def test_interval_without_failures(self):
        # [1, 2.5) is at risk but its one time is censored: its rate's MLE is 0
        d = make([0.5, 2.0, 3.0], [1, 0, 1])
        with pytest.raises(FitError, match="interval 1 has exposure but no failures"):
            fit_piecewise_exponential(d, cuts=(1.0, 2.5))

    def test_bad_cuts(self):
        d = make([1, 2], [1, 1])
        with pytest.raises(DataError):
            fit_piecewise_exponential(d, cuts=(2.0, 1.0))
        with pytest.raises(DataError):
            fit_piecewise_exponential(d, cuts=(-1.0,))
        with pytest.raises(DataError):
            fit_piecewise_exponential(d, cuts=(np.nan,))


class TestCurveFiles:
    def test_round_trip(self, tmp_path, censored_sample):
        km = kaplan_meier(censored_sample)
        path = tmp_path / "curve.csv"
        save_curve(km, path)
        back = load_external_curve(path)
        assert np.array_equal(back.jump_times, km.jump_times)
        assert np.array_equal(back.values, km.values)

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("t,s\n0,1\n")
        with pytest.raises(DataError, match="header"):
            load_external_curve(p)

    @pytest.mark.parametrize(
        "body,match",
        [
            ("0,1\n1,0.5,9\n", "line 3: expected 2 fields, got 3"),
            ("0,1\n1,0.5\nsoon,0.2\n", "line 4: could not convert"),
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, body, match):
        p = tmp_path / "c.csv"
        p.write_text("time,survival\n" + body)
        with pytest.raises(DataError, match="c.csv: " + match):
            load_external_curve(p)

    def test_must_start_at_origin(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("time,survival\n0,0.9\n")
        with pytest.raises(DataError, match=r"\(0, 1\)"):
            load_external_curve(p)

    def test_increasing_values_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("time,survival\n0,1\n1,0.5\n2,0.7\n")
        with pytest.raises(DataError, match="nonincreasing"):
            load_external_curve(p)
        # NaN passes no comparison, so it cannot pass as a survival value
        p.write_text("time,survival\n0,1\n5,nan\n")
        with pytest.raises(DataError, match="nonincreasing"):
            load_external_curve(p)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_external_curve(tmp_path / "absent.csv")

    def test_convergence_error_importable(self):
        # exercised rarely; keep the symbol in the public surface
        assert issubclass(ConvergenceError, Exception)
