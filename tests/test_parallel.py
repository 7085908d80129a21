"""The seeded block map behind the study runner and both resamplers."""

from __future__ import annotations

import multiprocessing
import os
from functools import partial
from types import SimpleNamespace

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
from margfit._parallel import _BLOCK_DRAWS, default_jobs, parallel_map
from margfit.simulate import _reps

SPEC = GeneratorSpec(
    baseline=Exponential(rate=1.0),
    beta=BetaFunction.constant(0.5),
    covariate=Uniform01(),
    censoring=UniformCensoring(2.0),
)
ESTIMATORS = {
    "pl": Constant(),
    "km": KaplanMeier(),
    "par:exponential": Parametric("exponential"),
}


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
        rows = parallel_map(partial(_reps, SPEC, ESTIMATORS, 30), 3, blocks, jobs)
        want = [_reps(SPEC, ESTIMATORS, 30, [alone(3, i)])[0] for i in range(blocks)]
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


@pytest.fixture
def forking(monkeypatch):
    """New processes fork, whatever this interpreter's default."""
    monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none: "fork")


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_default_jobs_stay_within_the_cpus_and_the_blocks(monkeypatch, forking, cpus):
    affinity = set(range(cpus))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    for n in range(70 * _BLOCK_DRAWS):
        jobs = default_jobs(n)
        assert 1 <= jobs <= cpus and jobs <= max(1, n // _BLOCK_DRAWS), n
    assert default_jobs(cpus * _BLOCK_DRAWS) == cpus
    assert default_jobs(2 * _BLOCK_DRAWS - 1) == 1


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_default_jobs_stay_within_this_process_affinity(forking):
    cpus = len(os.sched_getaffinity(0))
    assert default_jobs(10**6) == cpus


@pytest.mark.parametrize("count", [None, 1, 3])
def test_default_jobs_without_an_affinity_read_the_cpu_count(
    monkeypatch, forking, count
):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert default_jobs(10**6) == (count or 1)


def test_default_jobs_in_a_daemonic_process_are_one(monkeypatch, forking):
    # a multiprocessing.Pool worker may start no children of its own
    affinity = set(range(8))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    assert default_jobs(10**6) == 8
    daemon = SimpleNamespace(daemon=True)
    monkeypatch.setattr(multiprocessing, "current_process", lambda: daemon)
    assert default_jobs(10**6) == 1


@pytest.mark.parametrize(
    "chosen, default, jobs",
    [
        ("fork", "spawn", 8),
        ("spawn", "fork", 1),
        ("forkserver", "fork", 1),
        (None, "fork", 8),
        (None, "spawn", 1),
        (None, "forkserver", 1),
    ],
)
def test_default_jobs_are_one_unless_processes_fork(monkeypatch, chosen, default, jobs):
    # a spawned or forkserver worker re-runs an unguarded script's __main__
    affinity = set(range(8))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none: chosen)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: [default])
    assert default_jobs(10**6) == jobs


# a study of 40 replications at n = 50 with 30% censoring: three blocks, so
# the default runs one worker per CPU (at most two); ``bits`` is every output
STUDY = """
import os, sys
from dataclasses import replace
import margfit as mf
from margfit._parallel import _BLOCK_DRAWS
spec = mf.GeneratorSpec(
    baseline=mf.Exponential(rate=1.0),
    beta=mf.BetaFunction.constant(0.5),
    covariate=mf.Uniform01(),
    censoring=mf.UniformCensoring(2.0),
)
cfg = mf.StudyConfig(spec=spec, n=50, reps=40, seed=3, target_censoring=0.3)
def bits(res):
    estimates = {name: est.tobytes() for name, est in res.estimates.items()}
    refs = (res.reference_family, res.reference_mc)
    return repr((estimates, res.failures, res.n_failed, res.censoring_param, refs))
"""

# the Freireich data; ``bits`` is every output of a resampler, its point fit's too
RESAMPLE = """
import os, sys
import margfit as mf
from margfit._parallel import _BLOCK_DRAWS
data = mf.freireich()
def bits(res):
    p = res.point
    arrays = [a.tobytes() for a in (res.draws, res.se, p.beta, p.variance)]
    fit = (p.iterations, p.final_score_norm, p.theta)
    return repr((arrays, fit, res.n_failed, res.failures))
"""

# each entry point that takes ``jobs``, as ``run(n, **kw)`` over n indices
ENTRY_POINTS = pytest.mark.parametrize(
    "entry",
    [
        STUDY + "def run(n, **kw):\n"
        "    return mf.run_study(replace(cfg, reps=n), **kw)\n",
        RESAMPLE + "def run(n, **kw):\n"
        "    return mf.resample_distribution(data, mf.KaplanMeier(), n, 3, **kw)\n",
        RESAMPLE + "def run(n, **kw):\n"
        "    return mf.bootstrap(data, mf.Parametric('exponential'), n, 3, **kw)\n",
    ],
    ids=["study", "random-weights", "bootstrap"],
)


@ENTRY_POINTS
def test_a_default_study_uses_the_cpus_with_the_same_bits(fresh_python, entry):
    fresh_python(
        entry
        + "serial = bits(run(40, jobs=1))\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert bits(run(40)) == serial\n"
        "import multiprocessing\n"
        "forks = multiprocessing.get_start_method() == 'fork'\n"
        "several = forks and len(os.sched_getaffinity(0)) > 1\n"
        "assert ('concurrent.futures' in sys.modules) == several\n"
    )


@ENTRY_POINTS
def test_a_study_of_under_two_blocks_loads_no_pool(fresh_python, entry):
    fresh_python(
        entry
        + "run(2 * _BLOCK_DRAWS - 1)\n"
        "pool = ('concurrent.futures', 'multiprocessing')\n"
        "assert not [m for m in pool if m in sys.modules]\n"
    )


def test_a_default_study_runs_in_a_pool_worker(fresh_python):
    # the worker is daemonic: a pool of its own would be refused there
    fresh_python(
        STUDY
        + "import multiprocessing\n"
        "with multiprocessing.Pool(1) as pool:\n"
        "    inside = pool.apply(mf.run_study, (cfg,))\n"
        "assert bits(inside) == bits(mf.run_study(cfg, jobs=1))\n"
    )


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_an_unguarded_script_runs_a_default_study(fresh_python, tmp_path, method):
    # its workers would re-run the whole script, and so start pools of their own
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method")
    fresh_python(
        "import multiprocessing\n"
        f"multiprocessing.set_start_method({method!r}, force=True)\n"
        + STUDY
        + "assert bits(mf.run_study(cfg)) == bits(mf.run_study(cfg, jobs=1))\n"
        "assert 'concurrent.futures' not in sys.modules\n",
        script=tmp_path / "study.py",
    )
