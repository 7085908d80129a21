"""The benchmark's four workloads and the child process that runs them.

perfbench/run.py starts this file in a fresh process for every
measurement, in one of three forms:

    python3 perfbench/workloads.py --workload study --seed 20260819
    python3 perfbench/workloads.py --trace --seed 20260819
    python3 perfbench/workloads.py --record

The first sets up one workload's inputs, makes the workload's one public
call untraced (repeatedly, with --until) and prints one JSON line with its
timings, outputs and correctness problems. The second runs every workload twice: once through
its public call, then replayed one module call at a time under spans
(tracing.py). The replay must reproduce the call's outputs exactly; the
per-layer metrics come from its spans. The third rewrites reference.json
from the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import margfit as mf  # noqa: E402
from margfit.errors import DataError, FitError  # noqa: E402
from tracing import Tracer  # noqa: E402

DEFAULT_SEED = 20260819
# The resampling workloads resample one fixed dataset and take only their
# draws from the run's seed. A dataset drawn from each seed would change how
# many Newton steps the draws need by up to 10% between seeds.
DATASET_SEED = DEFAULT_SEED
REFERENCE_FILE = HERE / "reference.json"
OUT_DIR = HERE / "out"
# run_study's sub-stream indices for calibration and the reference Monte Carlo
CALIBRATION_STREAM = 1 << 32
REFERENCE_STREAM = (1 << 32) + 1
# single-call probes are timed this many times and reported as medians
PROBE_REPEATS = 200
# reference outputs must be reproduced to this absolute tolerance (on O(1) values)
REFERENCE_TOL = 1e-12
SIGMA_ROLES = ("log_sd", "log_var")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "MARGFIT_JOBS",
)


@dataclass(frozen=True)
class Sizes:
    reps: int  # study replications
    draws: int  # random-weight draws
    boot_draws: int  # bootstrap draws
    grid: tuple  # (beta0s, t_cs, ps) of the efficiency grid


FULL = Sizes(500, 1000, 60, ((0.5, 1.0, 2.0), (1.0, 0.5), (0.25, 0.5, 0.75)))
TINY = Sizes(3, 5, 5, ((0.5,), (1.0,), (0.5,)))


def _ms(seconds) -> float:
    return float(seconds) * 1e3


def _table2_changepoint(target: float) -> mf.StudyConfig:
    """The bundled table2 design changepoint-3-0: beta jumps from 3 to 0 at t=0.2."""
    path = Path(mf.__file__).parent / "data" / "table2.json"
    return next(
        c
        for c in mf.load_study_config(path)
        if c.label == "changepoint-3-0" and c.target_censoring == target
    )


def dataset_properties(prefix: str, datasets) -> dict:
    """Input-property counters, averaged over the workload's datasets."""
    rows = []
    for d in datasets:
        events = d.time[d.status == 1]
        _, counts = np.unique(events, return_counts=True)
        rows.append(
            (
                events.size,
                1.0 - events.size / d.n,
                counts.size,
                counts[counts > 1].sum() / events.size,
            )
        )
    n_events, censored, distinct, tied = np.mean(rows, axis=0)
    return {
        f"{prefix}.dataset.n_events": (float(n_events), "count"),
        f"{prefix}.dataset.censored_frac": (float(censored), "fraction"),
        f"{prefix}.dataset.distinct_event_times": (float(distinct), "count"),
        f"{prefix}.dataset.tied_event_frac": (float(tied), "fraction"),
    }


class Study:
    """run_study on changepoint-3-0 at 50% uniform censoring, n=1500."""

    name = "study"
    root = "simulate.run_study"
    layers = ("simulate", "estimate", "marginal")
    abort_frac = 0.01  # run_study aborts above 1% failed replications

    def setup(self, seed: int, sizes: Sizes):
        cfg = replace(_table2_changepoint(0.5), seed=seed, reps=sizes.reps)
        if cfg.families_to_fit != ("exponential",):
            raise SystemExit("the study replay fits the exponential family only")
        return cfg

    def call(self, cfg):
        return mf.run_study(cfg)

    def replay(self, cfg, tr: Tracer):
        with tr.span("simulate.calibrate_censoring"):
            param = mf.calibrate_censoring(
                cfg.spec,
                cfg.target_censoring,
                rng=np.random.default_rng([cfg.seed, CALIBRATION_STREAM]),
            )
        spec = replace(cfg.spec, censoring=mf.UniformCensoring(param))
        names = ("pl", "km", "par:exponential")
        est = {k: np.full(cfg.reps, np.nan) for k in names}
        realized = np.full(cfg.reps, np.nan)
        failures = []
        datasets = []
        iters = 0
        for rep in range(cfg.reps):
            with tr.span("simulate.rep"):
                rng = np.random.default_rng([cfg.seed, rep])
                with tr.span("simulate.generate_dataset"):
                    data = mf.generate_dataset(spec, cfg.n, rng)
                fits = {}
                try:
                    with tr.span("estimate.fit_pl"):
                        fits["pl"] = mf.solve_score(data, mf.Constant())
                except (FitError, DataError) as exc:
                    failures.append((rep, "pl", str(exc)))
                try:
                    with tr.span("estimate.fit_km"):
                        fits["km"] = mf.solve_score(data, mf.KaplanMeier())
                except (FitError, DataError) as exc:
                    failures.append((rep, "km", str(exc)))
                try:
                    with tr.span("marginal.fit_exponential"):
                        model = mf.fit_exponential(data)
                    with tr.span("estimate.fit_par"):
                        fits["par:exponential"] = mf.solve_score(data, mf.Parametric(model))
                except (FitError, DataError) as exc:
                    failures.append((rep, "par:exponential", str(exc)))
                for key, res in fits.items():
                    est[key][rep] = float(res.beta[0])
                    iters += res.iterations
                realized[rep] = 1.0 - float(np.mean(data.status))
            datasets.append(data)
        failed_reps = sorted({rep for rep, _, _ in failures})
        if len(failed_reps) > self.abort_frac * cfg.reps:
            raise FitError(f"{len(failed_reps)}/{cfg.reps} replications failed")
        ok = np.ones(cfg.reps, dtype=bool)
        ok[failed_reps] = False
        means = {k: float(np.mean(est[k][ok])) for k in names}
        sds = {
            k: float(np.std(est[k][ok], ddof=1)) if ok.sum() > 1 else 0.0 for k in names
        }
        with tr.span("simulate.expected_beta_family"):
            ref_family = mf.expected_beta_family(spec)
        with tr.span("simulate.expected_beta"):
            ref_mc = mf.expected_beta(
                spec, rng=np.random.default_rng([cfg.seed, REFERENCE_STREAM])
            )
        result = mf.SimStudyResult(
            estimates=est,
            means=means,
            sds=sds,
            reference_family=ref_family,
            reference_mc=ref_mc,
            censoring_param=param,
            realized_censoring=float(np.mean(realized[ok])),
            n_failed=len(failed_reps),
            failures=tuple(failures),
            config=cfg,
            seed=cfg.seed,
        )
        return result, {"datasets": datasets, "newton_iters": iters}

    def probe(self, cfg, result, info, tr: Tracer) -> None:
        pass

    def layer_metrics(self, tr: Tracer, info) -> dict:
        rep = tr.durations("simulate.rep")
        return {
            "simulate.calibrate_s": (tr.durations("simulate.calibrate_censoring")[0], "s"),
            "simulate.reference_s": (tr.durations("simulate.expected_beta")[0], "s"),
            "simulate.generate_ms.p50": (
                _ms(np.median(tr.durations("simulate.generate_dataset"))),
                "ms",
            ),
            "simulate.rep_ms.p50": (_ms(np.median(rep)), "ms"),
            "simulate.rep_ms.p98": (_ms(np.percentile(rep, 98)), "ms"),
            "estimate.fit_pl_ms.p50": (_ms(np.median(tr.durations("estimate.fit_pl"))), "ms"),
            "estimate.fit_km_ms.p50": (_ms(np.median(tr.durations("estimate.fit_km"))), "ms"),
            "estimate.fit_par_ms.p50": (
                _ms(np.median(tr.durations("estimate.fit_par"))),
                "ms",
            ),
            "estimate.newton_iters": (info["newton_iters"], "count"),
            "marginal.fit_exponential_ms": (
                _ms(np.median(tr.durations("marginal.fit_exponential"))),
                "ms",
            ),
        }

    def datasets(self, cfg, info):
        return info["datasets"]

    def summary(self, r) -> dict:
        out = {}
        for k in r.means:
            out[f"mean.{k}"] = r.means[k]
            out[f"sd.{k}"] = r.sds[k]
        out.update(
            censoring_param=r.censoring_param,
            realized_censoring=r.realized_censoring,
            reference_family=r.reference_family,
            reference_mc=r.reference_mc,
            n_failed=float(r.n_failed),
        )
        return out

    def arrays(self, r) -> dict:
        return {f"estimates.{k}": v for k, v in r.estimates.items()}

    def ops(self, r) -> tuple[int, int]:
        return r.config.reps, r.n_failed

    def invariants(self, cfg, r) -> list[str]:
        out = []
        # calibration lands within 0.005 of the target on its own Monte Carlo
        # draw; allow that, its draw noise and four binomial SDs of the sample
        q = cfg.target_censoring
        tol = 0.01 + 4.0 * math.sqrt(q * (1.0 - q) / (cfg.n * cfg.reps))
        if abs(r.realized_censoring - q) > tol:
            out.append(f"realized censoring {r.realized_censoring} is far from the target")
        if min(r.sds.values()) <= 0.0:
            out.append("a replication SD is not positive")
        return out


class _Resampling:
    """Shared outputs and checks of the two resampling workloads."""

    abort_frac = 0.05
    scheme = None
    ties = "breslow"
    layers = ("resample", "estimate")

    def summary(self, r) -> dict:
        out = {}
        for j in range(r.se.size):
            out[f"point.beta{j + 1}"] = float(r.point.beta[j])
            out[f"point.se{j + 1}"] = float(r.point.std_errors[j])
            out[f"se{j + 1}"] = float(r.se[j])
        out["n_failed"] = float(r.n_failed)
        return out

    def arrays(self, r) -> dict:
        return {"draws": r.draws}

    def ops(self, r) -> tuple[int, int]:
        return r.draws.shape[0] + r.n_failed, r.n_failed

    def invariants(self, x, r) -> list[str]:
        out = []
        u = mf.weighted_score(x.data, self.scheme, r.point.beta, ties=self.ties)
        if not np.abs(u).max() < 1e-9:
            out.append(f"point estimate does not solve the score equation: |U| = {u}")
        if not np.all(r.se > 0):
            out.append("a resampling SE is not positive")
        return out

    def datasets(self, x, info):
        return [x.data]

    def _result(self, x, point, rows, method):
        draws = [beta for _, beta, err in rows if err is None]
        failures = tuple((b, err) for b, _, err in rows if err is not None)
        mat = np.vstack(draws)
        return mf.ResampleResult(
            method=method,
            draws=mat,
            se=mat.std(axis=0, ddof=1),
            point=point,
            n_failed=len(failures),
            failures=failures,
            seed=x.seed,
        )


class RandomWeights(_Resampling):
    """1000 random-weight draws around one KM-weighted fit; the data never change."""

    name = "random_weights"
    root = "resample.resample_distribution"
    scheme = mf.KaplanMeier()

    def setup(self, seed: int, sizes: Sizes):
        # one fixed dataset, resampled with the run's seed; about half of the
        # subjects are censored at this bound
        spec = replace(_table2_changepoint(0.5).spec, censoring=mf.UniformCensoring(0.8))
        data = mf.generate_dataset(spec, 1500, np.random.default_rng(DATASET_SEED))
        return SimpleNamespace(data=data, seed=seed, draws=sizes.draws)

    def call(self, x):
        return mf.resample_distribution(x.data, self.scheme, n_draws=x.draws, seed=x.seed)

    def replay(self, x, tr: Tracer):
        with tr.span("estimate.point_fit"):
            point = mf.solve_score(x.data, self.scheme)
        rows = []
        for b in range(x.draws):
            with tr.span("resample.draw"):
                rng = np.random.default_rng([x.seed, b])
                try:
                    with tr.span("resample.random_weight_fit"):
                        rows.append((b, mf.random_weight_fit(x.data, self.scheme, rng), None))
                except (FitError, DataError) as exc:
                    rows.append((b, None, str(exc)))
        return self._result(x, point, rows, "random-weight"), {}

    def probe(self, x, result, info, tr: Tracer) -> None:
        beta = result.point.beta
        with tr.span("probe.random_weights"):
            for _ in range(PROBE_REPEATS):
                with tr.span("estimate.event_weights"):
                    mf.event_weights(x.data, self.scheme)
                with tr.span("marginal.kaplan_meier"):
                    mf.kaplan_meier(x.data)
                with tr.span("estimate.score_jacobian"):
                    mf.score_jacobian(x.data, self.scheme, beta)
                with tr.span("estimate.variance_sandwich"):
                    mf.variance_sandwich(x.data, self.scheme, beta)

    def layer_metrics(self, tr: Tracer, info) -> dict:
        draw = tr.durations("resample.draw")
        out = {
            name: (_ms(np.median(tr.durations(span))), "ms")
            for name, span in (
                ("estimate.km_weights_ms", "estimate.event_weights"),
                ("marginal.kaplan_meier_ms", "marginal.kaplan_meier"),
                ("estimate.score_jacobian_ms", "estimate.score_jacobian"),
                ("estimate.variance_sandwich_ms", "estimate.variance_sandwich"),
            )
        }
        out["resample.point_fit_ms"] = (_ms(tr.durations("estimate.point_fit")[0]), "ms")
        out["resample.draw_ms.p50"] = (_ms(np.median(draw)), "ms")
        out["resample.draw_ms.p99"] = (_ms(np.percentile(draw, 99)), "ms")
        return out


def heavy_tie_dataset(seed: int) -> mf.SurvivalDataset:
    """n=2000, two covariates, times rounded up to a 0.1 grid.

    Exponential times with rate 0.5 exp(0.7 z1 - 0.5 z2), z1 ~ Bernoulli(0.5),
    z2 ~ N(0, 1), and Uniform(0, 6) censoring leave about 70% events on
    about 50 distinct event times, so nearly every event is tied.
    """
    rng = np.random.default_rng(seed)
    n = 2000
    z = np.column_stack([rng.random(n) < 0.5, rng.standard_normal(n)]).astype(float)
    t = rng.exponential(size=n) / (0.5 * np.exp(z @ np.array([0.7, -0.5])))
    c = rng.uniform(0.0, 6.0, size=n)
    time_ = np.ceil(np.minimum(t, c) * 10.0) / 10.0
    return mf.SurvivalDataset(time=time_, status=(t <= c).astype(int), covariates=z)


class TiesBootstrap(_Resampling):
    """60 bootstrap draws of Efron-tied PL fits; every draw is a new dataset."""

    name = "ties_bootstrap"
    root = "resample.bootstrap"
    layers = ("resample", "dataset", "estimate")
    abort_frac = 1.0  # bootstrap keeps failed draws and never aborts on them
    scheme = mf.Constant()
    ties = "efron"

    def setup(self, seed: int, sizes: Sizes):
        # one fixed dataset, resampled with the run's seed
        data = heavy_tie_dataset(DATASET_SEED)
        return SimpleNamespace(data=data, seed=seed, draws=sizes.boot_draws)

    def call(self, x):
        return mf.bootstrap(x.data, self.scheme, n_draws=x.draws, seed=x.seed, ties=self.ties)

    def replay(self, x, tr: Tracer):
        data = x.data
        with tr.span("estimate.point_fit"):
            point = mf.solve_score(data, self.scheme, ties=self.ties)
        rows = []
        replicates = []
        for b in range(x.draws):
            with tr.span("resample.draw"):
                rng = np.random.default_rng([x.seed, b])
                idx = rng.integers(0, data.n, size=data.n)
                try:
                    with tr.span("dataset.build"):
                        rep = mf.SurvivalDataset(
                            time=data.time[idx],
                            status=data.status[idx],
                            covariates=data.covariates[idx],
                        )
                    with tr.span("estimate.fit_efron"):
                        res = mf.solve_score(rep, self.scheme, ties=self.ties, variance="none")
                    rows.append((b, res.beta, None))
                    replicates.append(rep)
                except (FitError, DataError) as exc:
                    rows.append((b, None, str(exc)))
        return self._result(x, point, rows, "bootstrap"), {"replicates": replicates}

    def probe(self, x, result, info, tr: Tracer) -> None:
        with tr.span("probe.breslow"):
            for rep in info["replicates"]:
                with tr.span("estimate.fit_breslow"):
                    mf.solve_score(rep, self.scheme, ties="breslow", variance="none")

    def layer_metrics(self, tr: Tracer, info) -> dict:
        efron = np.median(tr.durations("estimate.fit_efron"))
        breslow = np.median(tr.durations("estimate.fit_breslow"))
        return {
            "dataset.build_ms.p50": (_ms(np.median(tr.durations("dataset.build"))), "ms"),
            "estimate.fit_efron_ms.p50": (_ms(efron), "ms"),
            "estimate.fit_breslow_ms.p50": (_ms(breslow), "ms"),
            "estimate.efron_over_breslow": (float(efron / breslow), "ratio"),
        }


class Efficiency:
    """are_table over the 18-cell grid for both sigma roles, 36 quadrature cells."""

    name = "efficiency"
    root = "efficiency.are_table"
    layers = ("efficiency",)
    abort_frac = 0.0  # are_table raises on the first failing cell

    def setup(self, seed: int, sizes: Sizes):
        # the paper's fixed grid; nothing here depends on the seed
        return sizes.grid

    def call(self, grid):
        return [r for role in SIGMA_ROLES for r in mf.are_table(*grid, sigma_role=role)]

    def replay(self, grid, tr: Tracer):
        beta0s, t_cs, ps = grid
        out = []
        for role in SIGMA_ROLES:
            for t_c in t_cs:
                for b0 in beta0s:
                    for p in ps:
                        cfg = mf.AREConfig(beta0=b0, p=p, t_c=t_c, sigma_role=role)
                        with tr.span("efficiency.relative_efficiency"):
                            with tr.span("efficiency.sigma_integrals"):
                                s0, s1, s2 = mf.sigma_integrals(cfg)
                            with tr.span("efficiency.censoring_fraction"):
                                cens = mf.censoring_fraction(cfg)
                        out.append(
                            mf.AREResult(
                                sigma0=s0,
                                sigma1=s1,
                                sigma2=s2,
                                ratio=float(s1 * s1 / (s0 * s2)),
                                censoring_fraction=cens,
                                config=cfg,
                            )
                        )
        return out, {}

    def probe(self, grid, result, info, tr: Tracer) -> None:
        pass

    def layer_metrics(self, tr: Tracer, info) -> dict:
        sig = tr.durations("efficiency.sigma_integrals")
        return {
            "efficiency.sigma_integrals_ms.p50": (_ms(np.median(sig)), "ms"),
            "efficiency.sigma_integrals_ms.max": (_ms(sig.max()), "ms"),
            "efficiency.censoring_fraction_ms.p50": (
                _ms(np.median(tr.durations("efficiency.censoring_fraction"))),
                "ms",
            ),
        }

    def datasets(self, grid, info):
        return None

    def summary(self, results) -> dict:
        out = {}
        for r in results:
            c = r.config
            key = f"{c.sigma_role}/t_c={c.t_c}/beta0={c.beta0}/p={c.p}"
            out[f"{key}/ratio"] = r.ratio
            out[f"{key}/censoring_fraction"] = r.censoring_fraction
        return out

    def arrays(self, results) -> dict:
        return {
            name: np.array([getattr(r, name) for r in results])
            for name in ("sigma0", "sigma1", "sigma2")
        }

    def ops(self, results) -> tuple[int, int]:
        return len(results), 0

    def invariants(self, grid, results) -> list[str]:
        out = []
        for r in results:
            # Cauchy-Schwarz: the weighted estimator is never more efficient
            if not 0.0 < r.ratio <= 1.0 + 1e-12:
                out.append(f"efficiency ratio {r.ratio} outside (0, 1] for {r.config}")
            if not 0.0 < r.censoring_fraction < 1.0:
                out.append(f"censoring fraction {r.censoring_fraction} outside (0, 1)")
        return out


WORKLOADS = {w.name: w for w in (Study(), RandomWeights(), TiesBootstrap(), Efficiency())}


def check_outputs(wl, x, result, seed: int, sizes: Sizes) -> list[str]:
    """Correctness problems of one public call's outputs (empty when correct)."""
    summary = wl.summary(result)
    problems = [f"{wl.name}: {k} is not finite" for k, v in summary.items() if not math.isfinite(v)]
    attempted, failed = wl.ops(result)
    if failed > wl.abort_frac * attempted:
        problems.append(f"{wl.name}: {failed}/{attempted} ops failed")
    problems += [f"{wl.name}: {p}" for p in wl.invariants(x, result)]
    if seed == DEFAULT_SEED and sizes == FULL:
        ref = json.loads(REFERENCE_FILE.read_text())[wl.name]
        if set(ref) != set(summary):
            problems.append(f"{wl.name}: outputs {sorted(summary)} differ from the reference's")
        for k in set(ref) & set(summary):
            if not abs(summary[k] - ref[k]) <= REFERENCE_TOL * max(1.0, abs(ref[k])):
                problems.append(f"{wl.name}: {k} = {summary[k]!r}, reference {ref[k]!r}")
    return problems


def replay_mismatches(wl, result, again) -> tuple[int, list[str]]:
    """(values compared, mismatches) between the public call and its replay."""
    a, b = wl.summary(result), wl.summary(again)
    problems = [
        f"{wl.name}: replay {k} = {b.get(k)!r}, call {a[k]!r}" for k in a if a[k] != b.get(k)
    ]
    if set(a) != set(b):
        problems.append(f"{wl.name}: replay outputs {sorted(b)} differ from {sorted(a)}")
    compared = len(a)
    arrays_a, arrays_b = wl.arrays(result), wl.arrays(again)
    for k, v in arrays_a.items():
        compared += v.size
        if not np.array_equal(v, arrays_b[k], equal_nan=True):
            problems.append(f"{wl.name}: replay {k} differs from the call's")
    return compared, problems


def environment() -> dict:
    cpu = next(
        (
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        ),
        platform.processor(),
    )
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def os_threads() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return 0


def run_calls(name: str, seed: int, sizes: Sizes, until: float) -> dict:
    """Set up one workload, then make its public call untraced, back to back.

    Calls continue while the next one is expected to end by ``until`` (a
    ``time.monotonic`` reading); there is always at least one. The first
    call's outputs go through the correctness gate, and every later call
    must reproduce them.
    """
    wl = WORKLOADS[name]
    x = wl.setup(seed, sizes)
    ready = time.monotonic()
    walls = []
    attempted = failed = 0
    while not walls or time.monotonic() + statistics.median(walls) <= until:
        start = time.perf_counter()
        result = wl.call(x)
        walls.append(time.perf_counter() - start)
        a, f = wl.ops(result)
        attempted, failed = attempted + a, failed + f
        if len(walls) == 1:
            summary = wl.summary(result)
            problems = check_outputs(wl, x, result, seed, sizes)
        elif wl.summary(result) != summary:
            problems.append(f"{name}: outputs differ between calls with the same inputs")
    return {
        "ready": ready,
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "threads": os_threads(),
        "attempted": attempted,
        "failed": failed,
        "summary": summary,
        "problems": list(dict.fromkeys(problems)),
    }


def run_traced(seed: int, sizes: Sizes) -> dict:
    """Call and replay every workload; derive the per-layer metrics from the spans."""
    inputs = {name: wl.setup(seed, sizes) for name, wl in WORKLOADS.items()}
    metrics, problems, replayed, traces = {}, [], {}, {}
    attempted = failed = 0
    for name, wl in WORKLOADS.items():
        x = inputs[name]
        start = time.perf_counter()
        result = wl.call(x)
        untraced = time.perf_counter() - start
        tr = Tracer()
        with tr.span(wl.root):
            again, info = wl.replay(x, tr)
        wl.probe(x, again, info, tr)
        compared, mismatches = replay_mismatches(wl, result, again)
        replayed[name] = {"compared": compared, "mismatched": len(mismatches)}
        problems += mismatches + check_outputs(wl, x, result, seed, sizes)
        a, f = wl.ops(result)
        attempted, failed = attempted + a, failed + f

        wall, uncovered, self_s = tr.tree_stats()
        for layer in wl.layers:
            metrics[f"{name}.{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        metrics[f"{name}.uncovered_frac"] = (uncovered / wall, "fraction")
        metrics[f"{name}.trace_overhead_s"] = (wall - untraced, "s")
        metrics.update(wl.layer_metrics(tr, info))
        data = wl.datasets(x, info)
        if data:
            metrics.update(dataset_properties(name, data))
        traces[name] = {"untraced_wall_s": untraced, "traced_wall_s": wall, "spans": tr.spans}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{seed}.json").write_text(json.dumps(traces))
    return {
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "replayed": replayed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "threads": os_threads(),
    }


def record_reference() -> None:
    ref = {}
    for name, wl in WORKLOADS.items():
        ref[name] = wl.summary(wl.call(wl.setup(DEFAULT_SEED, FULL)))
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--until", type=float, default=0.0,
                    help="time.monotonic() by which the last call should end")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = ap.parse_args(argv)
    if Path(mf.__file__).resolve().parent != ROOT / "src" / "margfit":
        print(f"margfit was imported from {mf.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.record:
        record_reference()
        return 0
    sizes = TINY if args.tiny else FULL
    if args.trace:
        out = run_traced(args.seed, sizes)
    elif args.workload:
        out = run_calls(args.workload, args.seed, sizes, args.until)
    else:
        ap.error("give --workload, --trace or --record")
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
