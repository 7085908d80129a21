"""Random-weight resampling and the nonparametric bootstrap."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from margfit import (
    ConfigError,
    Constant,
    Exponential,
    FitError,
    KaplanMeier,
    Parametric,
    SurvivalDataset,
    bootstrap,
    fit_exponential,
    random_weight_fit,
    resample_distribution,
    solve_score,
)


def replicates(data, n_draws, seed):
    """The bootstrap's replicate datasets, drawn as it draws them."""
    for b in range(n_draws):
        idx = np.random.default_rng([seed, b]).integers(0, data.n, size=data.n)
        yield SurvivalDataset(
            time=data.time[idx],
            status=data.status[idx],
            covariates=data.covariates[idx],
        )


class EqualWeights:
    """Degenerate stand-in for a Generator: every draw is the same constant."""

    def __init__(self, c: float = 1.0):
        self.c = c

    def exponential(self, size):
        return np.full(size, self.c)


class TestRandomWeightFit:
    def test_degenerate_weights_reproduce_point_exactly(self, leukemia):
        for scheme in (Constant(), KaplanMeier()):
            point = solve_score(leukemia, scheme, variance="none")
            draw = random_weight_fit(leukemia, scheme, EqualWeights(1.0))
            assert np.array_equal(draw, point.beta)

    def test_weight_scale_invariance(self, leukemia):
        a = random_weight_fit(leukemia, Constant(), EqualWeights(1.0))
        b = random_weight_fit(leukemia, Constant(), EqualWeights(7.3))
        assert np.array_equal(a, b)

    def test_accepts_plain_seed(self, leukemia):
        a = random_weight_fit(leukemia, Constant(), 123)
        b = random_weight_fit(leukemia, Constant(), np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_draw_moves_the_estimate(self, leukemia):
        point = solve_score(leukemia, Constant(), variance="none")
        draw = random_weight_fit(leukemia, Constant(), np.random.default_rng(9))
        assert abs(draw[0] - point.beta[0]) > 1e-4

    def test_efron_rejected(self, leukemia):
        # tied failures draw independent weights, incompatible with Efron
        with pytest.raises(ConfigError):
            random_weight_fit(leukemia, Constant(), 1, ties="efron")


@pytest.fixture(scope="module")
def pl_draws(leukemia):
    return resample_distribution(leukemia, Constant(), n_draws=1000, seed=42)


class TestResampleDistribution:
    def test_sd_tracks_analytic_se(self, leukemia, pl_draws):
        # resampling SD within 0.08 of the Andersen-Gill SE (0.4096)
        assert pl_draws.n_failed == 0
        assert abs(pl_draws.se[0] - 0.4096) < 0.08

    def test_parametric_scheme_sd(self, leukemia):
        scheme = Parametric(Exponential(rate=30 / 541))
        res = resample_distribution(leukemia, scheme, n_draws=1000, seed=42)
        # sandwich SE for this scheme is 0.4192
        assert abs(res.se[0] - 0.4192) < 0.08

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_family_named_marginal_is_fitted_once(self, leukemia, jobs):
        # the weights stay at the original-data fit on every draw
        named = resample_distribution(
            leukemia, Parametric("exponential"), n_draws=40, seed=3, jobs=jobs
        )
        fixed = Parametric(fit_exponential(leukemia))
        supplied = resample_distribution(leukemia, fixed, n_draws=40, seed=3)
        assert np.array_equal(named.draws, supplied.draws)
        assert named.point.theta == {"family": "exponential", "rate": 30 / 541}

    def test_draws_look_normal_around_point(self, pl_draws):
        ks = stats.kstest(
            pl_draws.draws[:, 0],
            "norm",
            args=(float(pl_draws.point.beta[0]), float(pl_draws.point.std_errors[0])),
        )
        assert ks.pvalue > 0.01

    def test_substreams_are_uncorrelated(self, pl_draws):
        x = pl_draws.draws[:, 0] - pl_draws.draws[:, 0].mean()
        lag1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert abs(lag1) < 4 / np.sqrt(x.size)

    def test_deterministic_and_jobs_invariant(self, leukemia, pl_draws):
        again = resample_distribution(leukemia, Constant(), n_draws=1000, seed=42)
        assert np.array_equal(again.draws, pl_draws.draws)
        par = resample_distribution(
            leukemia, Constant(), n_draws=1000, seed=42, jobs=2
        )
        assert np.array_equal(par.draws, pl_draws.draws)

    def test_two_draws_arithmetic(self, leukemia):
        res = resample_distribution(leukemia, Constant(), n_draws=2, seed=3)
        x1, x2 = res.draws[:, 0]
        assert res.se[0] == pytest.approx(abs(x1 - x2) / np.sqrt(2), rel=1e-12)

    def test_needs_two_draws(self, leukemia):
        with pytest.raises(ConfigError, match="at least 2"):
            resample_distribution(leukemia, Constant(), n_draws=1, seed=0)

    def test_export_and_json(self, leukemia, pl_draws, tmp_path):
        path = tmp_path / "draws.csv"
        pl_draws.export_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "beta1"
        assert len(lines) == 1001
        assert float(lines[1]) == pytest.approx(pl_draws.draws[0, 0])
        doc = pl_draws.to_json_dict()
        assert doc["method"] == "random-weight"
        assert doc["n_draws"] == 1000 and doc["n_failed"] == 0
        assert doc["se"][0] == pytest.approx(float(pl_draws.se[0]))
        assert doc["point"]["beta"][0] == pytest.approx(1.5091914, abs=1e-6)


class TestBootstrap:
    def test_sd_tracks_analytic_se(self, leukemia):
        res = bootstrap(leukemia, Constant(), n_draws=500, seed=42)
        assert res.method == "bootstrap"
        assert abs(res.se[0] - 0.4096) < 0.1

    def test_identical_subjects_have_zero_se(self):
        same = SurvivalDataset(
            time=np.full(8, 3.0),
            status=np.ones(8, dtype=int),
            covariates=np.full((8, 1), 1.7),
        )
        res = bootstrap(same, Constant(), n_draws=20, seed=1)
        assert np.array_equal(res.se, np.zeros(1))
        assert np.all(res.draws == res.point.beta)

    def test_empty_replicates_recorded_not_fatal(self):
        # heavy censoring: many replicates hold no events at all
        tiny = SurvivalDataset(
            time=np.arange(1.0, 7.0),
            status=np.array([1, 1, 0, 0, 0, 0]),
            covariates=np.array([[0.0], [1.0], [0.0], [1.0], [0.0], [1.0]]),
        )
        res = bootstrap(tiny, Constant(), n_draws=200, seed=7)
        assert res.n_failed == 24
        assert res.draws.shape == (176, 1)
        assert all("event" in msg or "singular" in msg for _, msg in res.failures)

    def test_deterministic(self, leukemia):
        a = bootstrap(leukemia, Constant(), n_draws=50, seed=5)
        b = bootstrap(leukemia, Constant(), n_draws=50, seed=5)
        assert np.array_equal(a.draws, b.draws)

    def test_parametric_marginal_is_refit_per_replicate(self, leukemia):
        scheme = Parametric("exponential")
        res = bootstrap(leukemia, scheme, n_draws=60, seed=11)
        fixed = Parametric(Exponential(rate=30 / 541))  # the point fit's rate
        kept = bootstrap(leukemia, fixed, n_draws=60, seed=11)
        # same replicate indices; only the per-replicate refit differs
        assert res.point.theta["rate"] == pytest.approx(30 / 541)
        assert res.draws.shape == kept.draws.shape
        assert not np.allclose(res.draws, kept.draws)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_supplied_marginal_is_kept_on_every_replicate(self, leukemia, jobs):
        scheme = Parametric(Exponential(rate=2.0))
        res = bootstrap(leukemia, scheme, n_draws=30, seed=11, jobs=jobs)
        by_hand = [
            solve_score(rep, scheme, variance="none").beta
            for rep in replicates(leukemia, 30, 11)
        ]
        assert res.n_failed == 0
        assert np.array_equal(res.draws, np.vstack(by_hand))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_family_named_marginal_is_refit_on_every_replicate(self, leukemia, jobs):
        scheme = Parametric("exponential")
        res = bootstrap(leukemia, scheme, n_draws=30, seed=11, jobs=jobs)
        by_hand = [
            solve_score(rep, Parametric(fit_exponential(rep)), variance="none").beta
            for rep in replicates(leukemia, 30, 11)
        ]
        assert res.n_failed == 0
        assert np.array_equal(res.draws, np.vstack(by_hand))

    def test_se_matches_draw_spread(self, leukemia):
        res = bootstrap(leukemia, Constant(), n_draws=80, seed=2)
        assert res.se[0] == pytest.approx(res.draws[:, 0].std(ddof=1), rel=1e-12)
