"""Random-weight resampling and the nonparametric bootstrap."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import margfit.estimate
from margfit import (
    ConfigError,
    Constant,
    Exponential,
    FitError,
    KaplanMeier,
    Parametric,
    SurvivalDataset,
    UniformCensoring,
    bootstrap,
    fit_exponential,
    generate_dataset,
    load_study_config,
    random_weight_fit,
    resample_distribution,
    solve_score,
)
from margfit._parallel import _BLOCK_DRAWS, parallel_map
from margfit.estimate import _Kernel, _newton
from margfit.resample import _event_multipliers, _random_weight_draws


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


class ShortWeights(EqualWeights):
    """A stand-in for a Generator that draws one weight too few."""

    def exponential(self, size):
        return np.full(size - 1, self.c)


# two events in six subjects: a bootstrap replicate often has none
TWO_EVENTS = SurvivalDataset(
    time=np.arange(1.0, 7.0),
    status=np.array([1, 1, 0, 0, 0, 0]),
    covariates=np.array([[0.0], [1.0], [0.0], [1.0], [0.0], [1.0]]),
)


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


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda data: random_weight_fit(data, Constant(), ShortWeights()),
            ConfigError,
            r"one exponential draw per failure \(30\)",
            id="draws-one-short",
        ),
        pytest.param(
            lambda data: random_weight_fit(data, Constant(), EqualWeights(0.0)),
            ConfigError,
            "weights must be positive",
            id="zero-draw",
        ),
        pytest.param(
            # one of the two replicates of seed 4 has no events
            lambda data: bootstrap(TWO_EVENTS, Constant(), n_draws=2, seed=4),
            FitError,
            "fewer than 2 successful draws",
            id="bootstrap-one-success",
        ),
    ],
)
def test_bad_draws_are_refused(leukemia, call, error, message):
    with pytest.raises(error, match=message):
        call(leukemia)


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

    @pytest.mark.parametrize("method", [resample_distribution, bootstrap])
    @pytest.mark.parametrize(
        "n_draws, seed, match",
        [
            (2.5, 0, "n_draws must be an integer"),
            (True, 0, "n_draws must be an integer"),
            (10, -3, "seed must be nonnegative"),
            (10, "7", "seed must be an integer"),
            (10, 7.0, "seed must be an integer"),
            (10, False, "seed must be an integer"),
        ],
    )
    def test_draw_count_and_seed_are_checked(
        self, leukemia, method, n_draws, seed, match
    ):
        with pytest.raises(ConfigError, match=match):
            method(leukemia, Constant(), n_draws=n_draws, seed=seed)

    @pytest.mark.parametrize("method", [resample_distribution, bootstrap])
    def test_jobs_below_one_are_refused(self, leukemia, method):
        with pytest.raises(ConfigError, match="jobs must be at least 1"):
            method(leukemia, Constant(), n_draws=10, seed=0, jobs=0)

    def test_numpy_integers_are_integers(self, leukemia):
        res = resample_distribution(
            leukemia, Constant(), n_draws=np.int64(3), seed=np.uint32(7)
        )
        want = resample_distribution(leukemia, Constant(), n_draws=3, seed=7)
        assert np.array_equal(res.draws, want.draws)

    def test_export_csv(self, pl_draws, tmp_path):
        path = tmp_path / "draws.csv"
        pl_draws.export_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "beta1"
        assert len(lines) == 1001
        assert float(lines[1]) == pytest.approx(pl_draws.draws[0, 0])


@pytest.fixture(scope="module")
def changepoint_km_data():
    """1,500 rows of table2's changepoint-3-0 design, about half censored."""
    path = Path(margfit.__file__).parent / "data" / "table2.json"
    cfg = next(c for c in load_study_config(path) if c.label == "changepoint-3-0")
    spec = replace(cfg.spec, censoring=UniformCensoring(0.8))
    return generate_dataset(spec, 1500, np.random.default_rng(20260819))


@pytest.fixture(scope="module")
def two_covariate_data():
    """600 subjects, a normal and a binary covariate, untied times, ~35% censored."""
    rng = np.random.default_rng(23)
    z = np.column_stack([rng.normal(size=600), rng.integers(0, 2, size=600)])
    t = rng.exponential(scale=np.exp(-(z @ [0.5, -0.8])))
    c = rng.exponential(scale=2.0, size=600)
    return SurvivalDataset(
        time=np.minimum(t, c), status=(t <= c).astype(int), covariates=z
    )


def one_draw_at_a_time(data, scheme, n_draws, seed, ties="breslow"):
    return np.vstack(
        [
            random_weight_fit(data, scheme, np.random.default_rng([seed, b]), ties=ties)
            for b in range(n_draws)
        ]
    )


class TestSharedKernel:
    """One beta-free state serves the point fit and every random-weight draw."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("dataset", ["leukemia", "changepoint_km_data"])
    def test_draws_equal_one_draw_at_a_time(self, request, dataset, jobs):
        data = request.getfixturevalue(dataset)
        supplied = Parametric(Exponential(rate=0.5))
        schemes = [
            (Constant(), Constant()),
            (KaplanMeier(), KaplanMeier()),
            # a family name is fitted once, to the original data
            (Parametric("exponential"), Parametric(fit_exponential(data))),
            (supplied, supplied),
        ]
        for scheme, per_draw in schemes:
            res = resample_distribution(data, scheme, n_draws=12, seed=4, jobs=jobs)
            assert res.n_failed == 0
            assert np.array_equal(res.draws, one_draw_at_a_time(data, per_draw, 12, 4))
            point = solve_score(data, scheme)
            assert np.array_equal(res.point.beta, point.beta)
            assert res.point.to_dict() == point.to_dict()

    @pytest.mark.parametrize("block", [1, 3, 16, 24])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "dataset, scheme, ties",
        [
            ("changepoint_km_data", KaplanMeier(), "breslow"),
            ("two_covariate_data", Constant(), "breslow"),
            ("two_covariate_data", KaplanMeier(), "breslow"),
            ("two_covariate_data", Constant(), "efron"),  # no tied failures
        ],
    )
    def test_blocks_of_draws_equal_one_draw_at_a_time(
        self, request, monkeypatch, dataset, scheme, ties, jobs, block
    ):
        # two full blocks and a partial one (seven blocks of one); with
        # jobs=2 the workers' ranges cut the blocks elsewhere
        monkeypatch.setattr(margfit._parallel, "_BLOCK_DRAWS", block)
        data = request.getfixturevalue(dataset)
        n_draws = 2 * block + 5
        res = resample_distribution(
            data, scheme, n_draws=n_draws, seed=8, ties=ties, jobs=jobs
        )
        assert res.n_failed == 0
        want = one_draw_at_a_time(data, scheme, n_draws, 8, ties=ties)
        assert np.array_equal(res.draws, want)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_singular_draw_fails_alone_in_its_block(
        self, two_covariate_data, monkeypatch, jobs
    ):
        # z2 is zeroed after t0, so only the failures up to t0 see it vary: a
        # draw without weight on them has an exactly singular Jacobian
        data = two_covariate_data
        early = data.time <= np.median(data.time)
        data = SurvivalDataset(
            time=data.time,
            status=data.status,
            covariates=data.covariates * np.column_stack([np.ones(data.n), early]),
        )
        n_draws, seed, bad = 2 * _BLOCK_DRAWS + 5, 3, _BLOCK_DRAWS + 2
        e_bad = np.random.default_rng([seed, bad]).exponential(size=data.n_events)
        event_multipliers = margfit.resample._event_multipliers

        def singular_draw(e, m):
            mult = event_multipliers(e, m)
            mult[(e == e_bad).all(axis=1)[:, None] & early[data.status == 1]] = 0.0
            return mult

        monkeypatch.setattr(margfit.resample, "_event_multipliers", singular_draw)
        res = resample_distribution(
            data, Constant(), n_draws=n_draws, seed=seed, jobs=jobs
        )
        want, failures = [], []
        for b in range(n_draws):
            try:
                rng = np.random.default_rng([seed, b])
                want.append(random_weight_fit(data, Constant(), rng))
            except FitError as exc:
                failures.append((b, str(exc)))
        singular = "singular Jacobian: separation or degenerate covariates"
        assert failures == [(bad, singular)]
        assert res.failures == tuple(failures)
        assert np.array_equal(res.draws, np.vstack(want))

    def test_rounding_failures_fall_on_the_same_draws(self, leukemia):
        # at this covariate scale the score's rounding noise is near the 1e-9
        # stop: some draws cannot halve |U| below it, the rest converge
        data = SurvivalDataset(
            time=leukemia.time,
            status=leukemia.status,
            covariates=leukemia.covariates * 1e7,
        )
        n_draws = 2 * _BLOCK_DRAWS + 5
        solve = partial(_random_weight_draws, _Kernel.single(data, Constant()))
        failed = 0
        for b, (beta, err) in enumerate(parallel_map(solve, 5, n_draws, None)):
            try:
                rng = np.random.default_rng([5, b])
                want = random_weight_fit(data, Constant(), rng)
            except FitError as exc:
                assert str(err) == str(exc)
                failed += 1
            else:
                assert err is None and np.array_equal(beta, want)
        assert 0 < failed < n_draws

    def test_iteration_budget_fails_a_draw_alone_in_its_block(
        self, leukemia, monkeypatch
    ):
        # three Newton steps are too few for some draws and enough for others;
        # a draw out of budget fails with the message it gets alone
        monkeypatch.setattr(margfit.estimate, "_MAX_ITER", 3)
        solve = partial(_random_weight_draws, _Kernel.single(leukemia, KaplanMeier()))
        failed = 0
        for b, (beta, err) in enumerate(parallel_map(solve, 5, 40, None)):
            try:
                rng = np.random.default_rng([5, b])
                want = random_weight_fit(leukemia, KaplanMeier(), rng)
            except FitError as exc:
                assert str(err) == str(exc)
                assert str(err).startswith("no convergence after 3 iterations")
                failed += 1
            else:
                assert err is None and np.array_equal(beta, want)
        assert 0 < failed < 40

    def test_more_than_five_percent_failed_draws_abort(self, leukemia):
        # the rounding failures of test_rounding_failures_fall_on_the_same_draws,
        # here on more than 5% of the draws
        data = SurvivalDataset(
            time=leukemia.time,
            status=leukemia.status,
            covariates=leukemia.covariates * 1e7,
        )
        with pytest.raises(FitError, match=r"/200 resampling draws failed \(> 5%\)"):
            resample_distribution(data, Constant(), n_draws=200, seed=5)

    def test_memory_does_not_grow_with_the_draws(self, changepoint_km_data):
        # NumPy reports its buffers to tracemalloc; one batch of all 1000
        # draws would hold (1000 x 1500) arrays, about 12 MB each
        peaks = {}
        for n_draws in (_BLOCK_DRAWS, 1000):
            tracemalloc.start()
            try:
                resample_distribution(
                    changepoint_km_data, KaplanMeier(), n_draws=n_draws, seed=1
                )
                peaks[n_draws] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1000] < 2 * peaks[_BLOCK_DRAWS]
        assert peaks[1000] < 32 * 2**20

    def test_blocks_do_not_churn_the_heap(self, fresh_python):
        # in a fresh interpreter, after a warm-up run, a block's temporaries
        # are reused from the heap: blocks of 16 fault a few pages per
        # 1000-draw run, blocks of 32 about 16,000 (each Newton step gives
        # the heap top back to the system and faults it in again)
        pytest.importorskip("resource")
        code = (
            "import resource\n"
            "from dataclasses import replace\n"
            "from pathlib import Path\n"
            "import numpy as np\n"
            "import margfit as mf\n"
            "path = Path(mf.__file__).parent / 'data' / 'table2.json'\n"
            "cfg = next(c for c in mf.load_study_config(path)\n"
            "           if c.label == 'changepoint-3-0')\n"
            "spec = replace(cfg.spec, censoring=mf.UniformCensoring(0.8))\n"
            "data = mf.generate_dataset(spec, 1500, np.random.default_rng(20260819))\n"
            "mf.resample_distribution(data, mf.KaplanMeier(), n_draws=1000, seed=0)\n"
            "for seed in (1, 2, 3):\n"
            "    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    mf.resample_distribution(data, mf.KaplanMeier(), n_draws=1000, seed=seed)\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)\n"
        )
        faults = [int(line) for line in fresh_python(code).split()]
        assert len(faults) == 3 and max(faults) < 1000, faults

    def test_kaplan_meier_is_built_once_per_run(self, leukemia, monkeypatch):
        calls = []
        kaplan_meier = margfit.estimate.kaplan_meier

        def counted(data):
            calls.append(data)
            return kaplan_meier(data)

        monkeypatch.setattr(margfit.estimate, "kaplan_meier", counted)
        counts = []
        for n_draws in (10, 100):
            calls.clear()
            resample_distribution(leukemia, KaplanMeier(), n_draws=n_draws, seed=1)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_efron_needs_untied_failures(self, leukemia, censored_sample):
        # leukemia's tied failures draw independent multipliers
        with pytest.raises(ConfigError, match="no failure times are tied"):
            resample_distribution(leukemia, Constant(), n_draws=5, ties="efron")
        res = resample_distribution(
            censored_sample, Constant(), n_draws=8, seed=6, ties="efron"
        )
        want = one_draw_at_a_time(censored_sample, Constant(), 8, 6, ties="efron")
        assert np.array_equal(res.draws, want)
        assert res.point.ties == "efron"


class TestNewtonRowExits:
    """Whichever way a row of a block of draws leaves ``_newton``, it returns
    the root, iterations, |U|, V and error that the row gets alone."""

    @staticmethod
    def block_multipliers(kernel, n_draws, seed):
        m = kernel.ev.size
        rngs = [np.random.default_rng([seed, b]) for b in range(n_draws)]
        e = np.array([rng.exponential(size=m) for rng in rngs])
        return _event_multipliers(e, m)

    @staticmethod
    def exits(kernel, mult, monkeypatch):
        """Each row's exit, once the block's row is checked against that row
        alone, V's bytes included. A row converged without a halving made one
        score evaluation per step, after the one at zero."""
        calls = []
        score = _Kernel.score

        def counted(self, beta, rows=slice(None)):
            calls.append(len(beta))
            return score(self, beta, rows)

        monkeypatch.setattr(_Kernel, "score", counted)
        block = _newton(kernel.reweighted(mult))
        exits = []
        for b in range(len(mult)):
            calls.clear()
            alone = _newton(kernel.reweighted(mult[b : b + 1]))
            for got, want in zip(block[:4], alone[:4]):
                assert got[b].tobytes() == want[0].tobytes()
            err, want = block[4][b], alone[4][0]
            assert (type(err), str(err)) == (type(want), str(want))
            iterations = alone[1][0]
            if err is not None:
                exits.append(str(err).split(" (")[0])
            elif iterations == 0:
                exits.append("root at zero")
            else:
                exits.append("halved" if len(calls) > iterations + 1 else "full steps")
        return set(exits)

    def test_rounding_scale_block(self, leukemia, monkeypatch):
        # at this covariate scale some draws halve a step, some fail to
        # halve |U| below the stop; the zeroed draw's score is 0 at beta = 0
        data = SurvivalDataset(
            time=leukemia.time,
            status=leukemia.status,
            covariates=leukemia.covariates * 1e7,
        )
        kernel = _Kernel.single(data, Constant())
        mult = self.block_multipliers(kernel, 16, 5)
        mult[3] = 0.0
        assert self.exits(kernel, mult, monkeypatch) == {
            "root at zero",
            "full steps",
            "halved",
            "step halving failed to reduce the score",
        }

    def test_singular_jacobian_row(self, two_covariate_data, monkeypatch):
        # z2 varies only up to the median time, so a draw without weight on
        # the failures there has an exactly singular Jacobian
        data = two_covariate_data
        early = data.time <= np.median(data.time)
        data = SurvivalDataset(
            time=data.time,
            status=data.status,
            covariates=data.covariates * np.column_stack([np.ones(data.n), early]),
        )
        kernel = _Kernel.single(data, Constant())
        mult = self.block_multipliers(kernel, 8, 3)
        mult[2, early[data.status == 1]] = 0.0
        assert self.exits(kernel, mult, monkeypatch) == {
            "full steps",
            "singular Jacobian: separation or degenerate covariates",
        }

    def test_iteration_budget_row(self, leukemia, monkeypatch):
        monkeypatch.setattr(margfit.estimate, "_MAX_ITER", 3)
        kernel = _Kernel.single(leukemia, KaplanMeier())
        assert self.exits(
            kernel, self.block_multipliers(kernel, 16, 5), monkeypatch
        ) == {"full steps", "no convergence after 3 iterations"}


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
        res = bootstrap(TWO_EVENTS, Constant(), n_draws=200, seed=7)
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
