"""Print one sha256 per group of margfit outputs, to check a change keeps bits.

    python tests/bitwise_digest.py [group ...]

Run it on two checkouts and compare the lines: a group whose digest is the
same at both produced the same bytes. It pins nothing and pytest does not
collect it. The groups:

* ``fits``: ``solve_score`` on Freireich and on a tied two-covariate set,
  for every scheme form (pl, km, the three families, a curve file), under
  both tie rules: beta, variance, iterations, |U|, theta.
* ``studies``: ``run_study`` on every bundled table1-3 cell at 20
  replications and n = 300, serially and at the default ``jobs``.
* ``oracles``: ``beta_star_oracle`` under both weightings and
  ``calibrate_censoring`` for every censored cell.
* ``resamples``: ``resample_distribution``, ``bootstrap`` and
  ``random_weight_fit`` draws.
* ``benchmark``: every output ``perfbench/reference.json`` pins, at the
  benchmark's own seed and sizes.
* ``floor``: Newton rows that stop at the rounding floor (Freireich with
  covariates x 1e7, partial likelihood at n = 200,000), V included.
* ``overflow``: rows whose exp(beta z) overflows (covariates + 400 and
  + 800), which fail.
* ``cli``: ``margfit.cli.main`` run in-process on Freireich: ``fit`` under
  every scheme form, ``resample`` by both methods, ``km-export``, a one-cell
  ``are`` grid and ``simulate`` on a small study document; each run's exit
  code, stdout and written files, with the temporary directory replaced by
  ``<tmp>``. Two failing runs (a bad scheme, a missing file) give their exit
  codes alone.

It takes about ten seconds on two cores.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True

import margfit as mf  # noqa: E402
from margfit.cli import main as cli_main  # noqa: E402
from margfit.estimate import _Kernel, _newton, _scheme_rows  # noqa: E402
from margfit.resample import _event_multipliers  # noqa: E402
from margfit.simulate import _CALIBRATION_STREAM  # noqa: E402

TABLES = [ROOT / "src" / "margfit" / "data" / f"table{k}.json" for k in (1, 2, 3)]


def feed(h, x) -> int:
    """Hash ``x``'s type, shape and bytes into ``h``; returns the items fed."""
    if isinstance(x, dict):
        return sum(feed(h, k) + feed(h, x[k]) for k in sorted(x, key=str))
    if isinstance(x, (list, tuple)):
        h.update(b"[%d" % len(x))
        return sum(feed(h, v) for v in x)
    if isinstance(x, Exception):
        return feed(h, (type(x).__name__, str(x)))
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        fields = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
        return feed(h, (type(x).__name__, fields))
    if x is None or isinstance(x, (str, bool)):
        h.update(repr(x).encode())
        return 1
    a = np.ascontiguousarray(x)
    if a.dtype == object:
        raise TypeError(f"cannot hash {type(x).__name__}")
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return max(a.size, 1)


def outcome(call, *args, **kwargs):
    """``call``'s result, or the ``MargfitError`` it raised."""
    try:
        return call(*args, **kwargs)
    except mf.MargfitError as exc:
        return exc


def datasets():
    """Freireich, and 120 subjects with two covariates and heavily tied times."""
    rng = np.random.default_rng(3)
    n = 120
    z = np.column_stack([rng.binomial(1, 0.5, n), rng.normal(size=n)])
    t = rng.exponential(np.exp(-(0.7 * z[:, 0] - 0.4 * z[:, 1])))
    c = rng.exponential(1.5, n)
    tied = mf.SurvivalDataset(
        time=np.round(np.minimum(t, c), 1) + 0.1,
        status=(t <= c).astype(int),
        covariates=z,
    )
    return {"freireich": mf.freireich(), "tied": tied}


def scaled(data, scale=1.0, shift=0.0):
    return mf.SurvivalDataset(
        time=data.time, status=data.status, covariates=data.covariates * scale + shift
    )


def group_fits():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in datasets().items():
            curve = Path(tmp) / f"{name}.csv"
            mf.save_curve(mf.kaplan_meier(data), curve)
            specs = ["pl", "km", "par:exponential", "par:weibull", "par:pwexp:5,10"]
            for label, spec in [(s, s) for s in specs] + [("curve", f"curve:{curve}")]:
                scheme = mf.estimate._parse_scheme(spec)
                for ties in ("breslow", "efron"):
                    fit = outcome(mf.solve_score, data, scheme, ties=ties)
                    out[f"{name}/{label}/{ties}"] = fit
    return out


def cells():
    for path in TABLES:
        for cfg in mf.load_study_config(path):
            yield path.stem, dataclasses.replace(cfg, reps=20, n=300)


def group_studies():
    out = {}
    for table, cfg in cells():
        for jobs in (1, None):
            res = outcome(mf.run_study, cfg, jobs=jobs)
            if not isinstance(res, Exception):
                res = dataclasses.replace(res, config=None)
            out[f"{table}/{cfg.label}@{cfg.target_censoring}/jobs={jobs}"] = res
    return out


def group_oracles():
    out = {}
    for table, cfg in cells():
        key = f"{table}/{cfg.label}@{cfg.target_censoring}"
        spec = cfg.spec
        if cfg.target_censoring > 0:
            rng = np.random.default_rng([cfg.seed, _CALIBRATION_STREAM])
            param = outcome(mf.calibrate_censoring, spec, cfg.target_censoring, rng=rng)
            out[key + "/calibrate"] = param
            if not isinstance(param, Exception):
                spec = dataclasses.replace(spec, censoring=type(spec.censoring)(param))
        for weighting in ("failure", "risk"):
            out[f"{key}/{weighting}"] = outcome(mf.beta_star_oracle, spec, weighting)
    return out


def group_resamples():
    out = {}
    data = datasets()
    for name, d in data.items():
        for spec in ("pl", "km", "par:exponential"):
            scheme = mf.estimate._parse_scheme(spec)
            out[f"{name}/{spec}/random"] = outcome(
                mf.resample_distribution, d, scheme, 200, 1, jobs=1
            )
            out[f"{name}/{spec}/bootstrap"] = outcome(mf.bootstrap, d, scheme, 60, 2, jobs=1)
            out[f"{name}/{spec}/one"] = [
                outcome(mf.random_weight_fit, d, scheme, np.random.default_rng([7, b]))
                for b in range(10)
            ]
        out[f"{name}/pl/bootstrap/efron"] = outcome(
            mf.bootstrap, d, mf.Constant(), 60, 3, ties="efron", jobs=1
        )
    out["freireich/pl/random/jobs=2"] = outcome(
        mf.resample_distribution, data["freireich"], mf.Constant(), 200, 1, jobs=2
    )
    return out


def group_benchmark():
    import workloads

    return {
        name: wl.summary(wl.call(wl.setup(workloads.DEFAULT_SEED, workloads.FULL)))
        for name, wl in workloads.WORKLOADS.items()
    }


def newton_block(data, scheme, n_draws, seed):
    """``_newton``'s full output on a block of random-weight draws of ``data``."""
    kernel = _Kernel(data, "breslow")
    [(_, _, w)] = _scheme_rows(kernel, [scheme])
    m = kernel.ev.size
    rngs = [np.random.default_rng([seed, b]) for b in range(n_draws)]
    e = np.array([rng.exponential(size=m) for rng in rngs])
    return _newton(kernel, w * _event_multipliers(e, m))


def draws(data, n_draws=40, seed=5):
    return [
        outcome(mf.random_weight_fit, data, mf.Constant(), np.random.default_rng([seed, b]))
        for b in range(n_draws)
    ]


def group_floor():
    leukemia = scaled(mf.freireich(), scale=1e7)
    rng = np.random.default_rng(0)
    n = 200_000
    z = rng.binomial(1, 0.5, n).astype(float)
    t, c = rng.exponential(np.exp(-z)), rng.exponential(1.0, n)
    large = mf.SurvivalDataset(
        time=np.minimum(t, c), status=(t <= c).astype(int), covariates=z
    )
    return {
        "block": newton_block(leukemia, mf.Constant(), 16, 5),
        "fit": outcome(mf.solve_score, leukemia, mf.Constant()),
        "draws": draws(leukemia),
        "pl_200000": outcome(mf.solve_score, large, mf.Constant()),
    }


def group_overflow():
    leukemia = mf.freireich()
    return {
        "block+400": newton_block(scaled(leukemia, shift=400.0), mf.Constant(), 16, 5),
        "draws+400": draws(scaled(leukemia, shift=400.0)),
        "fit+800": outcome(mf.solve_score, scaled(leukemia, shift=800.0), mf.Constant()),
        "fit+400": outcome(mf.solve_score, scaled(leukemia, shift=400.0), mf.Constant()),
    }


# a small study document for ``margfit simulate``: one cell at two
# censoring levels, at a size that runs in a second
CLI_STUDY = {
    "label": "cli-digest",
    "baseline": {"family": "exponential", "rate": 2.0, "role": "marginal"},
    "beta": {"changepoints": [0.2], "values": [1.0, 0.0]},
    "covariate": {"kind": "uniform01"},
    "censoring_family": "uniform",
    "target_censoring": [0.0, 0.3],
    "n": 200,
    "reps": 40,
    "seed": 11,
    "families_to_fit": ["exponential", "weibull"],
}


def cli_run(tmp: Path, argv: list) -> tuple:
    """(exit code, stdout, files written) of one in-process ``margfit`` run,
    with ``tmp`` written as ``<tmp>``; a failing run gives its code alone."""
    before = set(tmp.rglob("*"))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        return (code,)
    written = {
        str(p.relative_to(tmp)): p.read_text(encoding="utf-8").replace(str(tmp), "<tmp>")
        for p in sorted(set(tmp.rglob("*")) - before)
        if p.is_file()
    }
    return code, stdout.getvalue().replace(str(tmp), "<tmp>"), written


def group_cli():
    out = {}
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        data = tmp / "freireich.csv"
        mf.save_csv(mf.freireich(), data)
        curve = tmp / "curve.csv"
        mf.save_curve(mf.kaplan_meier(mf.freireich()), curve)
        study = tmp / "study.json"
        study.write_text(json.dumps(CLI_STUDY), encoding="utf-8")
        specs = ["pl", "km", "par:exponential", "par:weibull", "par:pwexp:5,10"]
        for k, spec in enumerate(specs + [f"curve:{curve}"]):
            argv = ["fit", data, "--scheme", spec, "--out", tmp / f"fit{k}.json"]
            out[f"fit/{k}"] = cli_run(tmp, argv)
        out["fit/pl/efron"] = cli_run(
            tmp, ["fit", data, "--ties", "efron", "--out", tmp / "fit_efron.json"]
        )
        argv = ["fit", data, "--scheme", "km", "--ties", "efron"]
        out["fit/km/efron"] = cli_run(tmp, argv + ["--out", tmp / "fit_km_efron.json"])
        for method in ("weights", "bootstrap"):
            for spec in ("pl", "km"):
                argv = ["resample", data, "--scheme", spec, "--method", method]
                argv += ["-B", 100, "--seed", 7, "--out", tmp / f"{method}_{spec}.csv"]
                out[f"resample/{method}/{spec}"] = cli_run(tmp, argv)
        out["km-export"] = cli_run(
            tmp, ["km-export", data, "--family", "weibull", "--out-prefix", tmp / "km"]
        )
        argv = ["are", "--beta0", "1", "--tc", "1", "--p", "0.5", "--out", tmp / "are.csv"]
        out["are"] = cli_run(tmp, argv)
        argv = ["simulate", study, "--seed", 3, "--out-dir", tmp / "study"]
        out["simulate"] = cli_run(tmp, argv)
        out["error/scheme"] = cli_run(tmp, ["fit", data, "--scheme", "mystery"])
        out["error/missing"] = cli_run(tmp, ["fit", tmp / "missing.csv"])
    return out


GROUPS = {
    "fits": group_fits,
    "studies": group_studies,
    "oracles": group_oracles,
    "resamples": group_resamples,
    "benchmark": group_benchmark,
    "floor": group_floor,
    "overflow": group_overflow,
    "cli": group_cli,
}


def main(argv) -> int:
    names = argv or list(GROUPS)
    unknown = sorted(set(names) - set(GROUPS))
    if unknown:
        print(f"unknown group(s) {unknown}; choose from {sorted(GROUPS)}", file=sys.stderr)
        return 2
    for name in names:
        h = hashlib.sha256()
        count = feed(h, GROUPS[name]())
        print(f"{name:<10} {h.hexdigest()}  ({count} items)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
