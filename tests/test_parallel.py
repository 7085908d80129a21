"""The seeded block map behind the study runner and both resamplers."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

import margfit._parallel
import margfit.resample
import margfit.simulate
from margfit import (
    BetaFunction,
    ConfigError,
    Constant,
    Exponential,
    GeneratorSpec,
    KaplanMeier,
    Parametric,
    StudyConfig,
    SurvivalDataset,
    Uniform01,
    UniformCensoring,
    bootstrap,
    fit_exponential,
    random_weight_fit,
    resample_distribution,
    run_study,
    solve_score,
)
from margfit._parallel import parallel_map
from margfit.simulate import _reps

SPEC = GeneratorSpec(
    baseline=Exponential(rate=1.0),
    beta=BetaFunction.constant(0.5),
    covariate=Uniform01(),
    censoring=UniformCensoring(2.0),
)
NAMES = ["pl", "km", "par:exponential"]


def alone(seed, i):
    """Index ``i``'s generator, as ``parallel_map`` draws it."""
    return np.random.default_rng([seed, i])


@pytest.mark.parametrize("block", [1, 3, 16, 24])
@pytest.mark.parametrize("jobs", [1, 2])
class TestEachIndexAlone:
    """Whatever the block size and ``jobs``, each index's row is the row it
    gets solved alone: two full blocks and a partial one (seven blocks of
    one); with jobs=2 the workers' ranges cut the blocks elsewhere."""

    @pytest.fixture(autouse=True)
    def blocks(self, monkeypatch, block):
        monkeypatch.setattr(margfit._parallel, "_BLOCK_DRAWS", block)
        return 2 * block + 5

    def test_study_rows(self, blocks, jobs):
        rows = parallel_map(partial(_reps, SPEC, NAMES, 30), 3, blocks, jobs)
        want = [_reps(SPEC, NAMES, 30, [alone(3, i)])[0] for i in range(blocks)]
        assert repr(rows) == repr(want)

    def test_bootstrap_draws(self, leukemia, blocks, jobs):
        res = bootstrap(leukemia, KaplanMeier(), n_draws=blocks, seed=4, jobs=jobs)
        want = []
        for b in range(blocks):
            idx = alone(4, b).integers(0, leukemia.n, size=leukemia.n)
            rep = SurvivalDataset(
                time=leukemia.time[idx],
                status=leukemia.status[idx],
                covariates=leukemia.covariates[idx],
            )
            want.append(solve_score(rep, KaplanMeier(), variance="none").beta)
        assert res.n_failed == 0
        assert res.draws.tobytes() == np.vstack(want).tobytes()

    def test_random_weight_draws(self, leukemia, blocks, jobs):
        # a family name is fitted once, to the original data
        scheme = Parametric("exponential")
        res = resample_distribution(leukemia, scheme, n_draws=blocks, seed=5, jobs=jobs)
        fitted = Parametric(fit_exponential(leukemia))
        want = [random_weight_fit(leukemia, fitted, alone(5, b)) for b in range(blocks)]
        assert res.n_failed == 0
        assert res.draws.tobytes() == np.vstack(want).tobytes()


# the three entry points that take ``jobs``; the study calibrates its censoring
CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda data, jobs: resample_distribution(data, Constant(), n_draws=8, jobs=jobs),
        lambda data, jobs: bootstrap(data, Constant(), n_draws=8, jobs=jobs),
        lambda data, jobs: run_study(
            StudyConfig(spec=SPEC, n=20, reps=4, seed=0, target_censoring=0.3), jobs
        ),
    ],
    ids=["random-weights", "bootstrap", "study"],
)


@pytest.mark.parametrize("jobs", [2.5, "2", True])
@CALLS
def test_jobs_must_be_an_integer(leukemia, call, jobs):
    with pytest.raises(ConfigError, match="jobs must be an integer"):
        call(leukemia, jobs)


@pytest.fixture
def work(monkeypatch):
    """Names of the calibrations and point fits run while the test runs."""
    names = []
    for module, name in [
        (margfit.simulate, "calibrate_censoring"),
        (margfit.resample, "solve_score"),
        (margfit.resample, "_random_weight_kernel"),
    ]:

        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            names.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return names


@pytest.mark.parametrize("jobs", [2.5, 0, True])
@CALLS
def test_bad_jobs_are_refused_before_any_work(leukemia, work, call, jobs):
    with pytest.raises(ConfigError, match="jobs must be"):
        call(leukemia, jobs)
    assert work == []


@CALLS
def test_good_jobs_reach_the_work(leukemia, work, call):
    call(leukemia, 1)
    assert work


def test_integer_jobs_of_any_integer_type_are_taken():
    rows = parallel_map(lambda rngs: [rng.random() for rng in rngs], 7, 3, np.int64(1))
    assert rows == [alone(7, i).random() for i in range(3)]
