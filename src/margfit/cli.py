"""Command-line front end.

Subcommands: ``fit`` (one dataset, one weighting scheme), ``simulate``
(config-driven study tables), ``are`` (efficiency grid), ``resample``
(random-weight or bootstrap distributions), ``km-export`` (survival-curve
data for plotting). Exit codes: 0 success, 2 argument/config error, 3 data
error, 4 solver failure. JSON outputs carry ``"schema": 1``; all randomness
flows from ``--seed`` (a generated seed is printed when omitted).
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .dataset import _write_table, load_csv
from .efficiency import are_table
from .errors import ConfigError, ConvergenceError, DataError, FitError
from .estimate import FitResult, _parse_scheme, solve_score
from .marginal import StepSurvival, fit_family, kaplan_meier, save_curve
from .resample import bootstrap, resample_distribution
from .simulate import (
    _estimator_names,
    load_study_config,
    results_to_json,
    run_study,
    write_results_csv,
)

__all__ = [
    "main",
    "build_parser",
    "cmd_fit",
    "cmd_simulate",
    "cmd_are",
    "cmd_resample",
    "cmd_km_export",
]

_BUNDLED_CONFIGS = ("table1", "table2", "table3")


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"{what} must be a comma-separated number list") from None


def _print_fit(result: FitResult) -> None:
    print(
        f"scheme: {result.scheme}  ties: {result.ties}  "
        f"n: {result.n}  events: {result.n_events}  "
        f"iterations: {result.iterations}"
    )
    if result.theta is not None:
        print(f"marginal: {result.theta}")
    width = max(6, len(str(len(result.beta))) + 1)
    print(f"{'coef':<{width}}  estimate (se)")
    for j, (b, s) in enumerate(zip(result.beta, result.std_errors)):
        print(f"{'z' + str(j + 1):<{width}}  {b:.4f} ({s:.4f})")


def _write_json(path, doc) -> None:
    try:
        Path(path).write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def cmd_fit(args) -> int:
    data = load_csv(args.csv)
    result = solve_score(data, _parse_scheme(args.scheme), ties=args.ties)
    _print_fit(result)
    if args.out:
        _write_json(args.out, {"schema": 1, **result.to_dict()})
        print(f"wrote {args.out}")
    return 0


def _load_configs(name: str) -> tuple[str, list]:
    """(stem, study configs) of a config path or bundled name; a bundled one
    is read inside its resource context, while its file is sure to exist."""
    p = Path(name)
    if p.exists():
        return p.stem, load_study_config(p)
    if name in _BUNDLED_CONFIGS:
        ref = resources.files("margfit.data") / f"{name}.json"
        with resources.as_file(ref) as concrete:
            return name, load_study_config(concrete)
    raise ConfigError(
        f"no config file {name!r}; bundled names: {', '.join(_BUNDLED_CONFIGS)}"
    )


def cmd_simulate(args) -> int:
    stem, configs = _load_configs(args.config)
    if args.seed is not None:
        configs = [replace(c, seed=args.seed) for c in configs]
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {out_dir}: {exc}") from None
    results = []
    for cfg in configs:
        print(
            f"running: {cfg.label or 'study'} "
            f"target censoring {cfg.target_censoring:.0%} "
            f"(n={cfg.n}, reps={cfg.reps}, seed={cfg.seed})",
            flush=True,
        )
        results.append(run_study(cfg, jobs=args.jobs))
    csv_path = out_dir / f"{stem}_results.csv"
    json_path = out_dir / f"{stem}_results.json"
    write_results_csv(results, csv_path)
    _write_json(json_path, results_to_json(results))
    names = _estimator_names(results)
    print(f"seed: {results[0].seed}")
    header = "label            censoring  " + "  ".join(f"{n:<16}" for n in names)
    print(header + "  E[beta(T)]")
    for r in results:
        cells = "  ".join(
            (f"{r.means[n]:.3f} ({r.sds[n]:.3f})" if n in r.means else "").ljust(16)
            for n in names
        )
        print(
            f"{r.config.label:<16} {r.realized_censoring:>8.1%}  "
            f"{cells}  {r.reference_family:.3f}"
        )
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_are(args) -> int:
    results = are_table(
        beta0s=_parse_floats(args.beta0, "--beta0"),
        t_cs=_parse_floats(args.tc, "--tc"),
        ps=_parse_floats(args.p, "--p"),
        sigma_role=args.sigma_role,
    )
    rows = []
    print("beta0   t_c    p      ratio   censoring")
    for r in results:
        c = r.config
        print(
            f"{c.beta0:<7g} {c.t_c:<6g} {c.p:<6g} {r.ratio:.3f}   "
            f"{100 * r.censoring_fraction:.0f}%"
        )
        rows.append(
            [c.beta0, c.t_c, c.p, r.ratio, 100 * r.censoring_fraction, r.sigma0]
            + [r.sigma1, r.sigma2, c.sigma_role]
        )
    if args.out:
        header = "beta0,t_c,p,ratio,censoring_percent,sigma0,sigma1,sigma2,sigma_role"
        _write_table(args.out, header.split(","), rows)
        print(f"wrote {args.out}")
    return 0


def cmd_resample(args) -> int:
    data = load_csv(args.csv)
    scheme = _parse_scheme(args.scheme)
    seed = args.seed
    if seed is None:
        seed = secrets.randbits(32)
        print(f"seed: {seed}")
    draw = resample_distribution if args.method == "weights" else bootstrap
    result = draw(
        data, scheme, n_draws=args.draws, seed=seed, ties=args.ties, jobs=args.jobs
    )
    print(
        f"method: {result.method}  draws: {result.draws.shape[0]}  "
        f"failed: {result.n_failed}"
    )
    for j, (b, s, rs) in enumerate(
        zip(result.point.beta, result.point.std_errors, result.se)
    ):
        print(
            f"z{j + 1}: point {b:.4f} (analytic se {s:.4f}, resampling se {rs:.4f})"
        )
    if args.out:
        result.export_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_km_export(args) -> int:
    data = load_csv(args.csv)
    prefix = args.out_prefix or str(Path(args.csv).with_suffix(""))
    # fit before writing anything so a bad request leaves no files
    model = fit_family(data, args.family) if args.family else None
    km = kaplan_meier(data)
    km_path = Path(f"{prefix}_km.csv")
    save_curve(km, km_path)
    print(f"wrote {km_path}")
    if model is not None:
        grid = np.linspace(0.0, float(data.time.max()), 200)
        surv = np.asarray(model.survival(grid), dtype=float)
        curve = StepSurvival(jump_times=grid[1:], values=surv[1:])
        par_path = Path(f"{prefix}_{args.family.split(':')[0]}.csv")
        save_curve(curve, par_path)
        print(f"wrote {par_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="margfit",
        description=(
            "Marginal-survival-weighted relative-risk estimation: fitting, "
            "simulation studies, efficiency tables, and resampling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one dataset with one weighting scheme")
    p.add_argument("csv", help="dataset CSV with columns time,status,z1[,z2,...]")
    p.add_argument(
        "--scheme",
        default="pl",
        help="pl | km | par:exponential | par:weibull | "
        "par:pwexp:cut1,cut2,... | curve:FILE (default pl)",
    )
    p.add_argument(
        "--ties",
        default="breslow",
        choices=("breslow", "efron"),
        help="tie handling (efron: constant weights only)",
    )
    p.add_argument("--out", help="write the fit as JSON to this path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="run a study config (path or bundled name)")
    p.add_argument(
        "config",
        help=f"config JSON path or bundled name ({', '.join(_BUNDLED_CONFIGS)})",
    )
    p.add_argument("--out-dir", default=".", help="output directory (default .)")
    p.add_argument("--seed", type=int, help="override the config's seed")
    p.add_argument(
        "--jobs",
        type=int,
        help="parallel workers (default one per available CPU where processes "
        "fork, else 1; serial below 32 reps)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("are", help="asymptotic relative efficiency grid")
    p.add_argument("--beta0", default="0.5,1,2", help="comma list (default 0.5,1,2)")
    p.add_argument("--tc", default="1,0.5", help="comma list (default 1,0.5)")
    p.add_argument(
        "--p", default="0.25,0.5,0.75", help="comma list (default 0.25,0.5,0.75)"
    )
    p.add_argument(
        "--sigma-role",
        default="log_sd",
        choices=("log_sd", "log_var"),
        help="reading of t_c as the lognormal log-scale SD or variance",
    )
    p.add_argument("--out", help="write the grid CSV to this path")
    p.set_defaults(func=cmd_are)

    p = sub.add_parser(
        "resample", help="random-weight or bootstrap resampling distribution"
    )
    p.add_argument("csv", help="dataset CSV")
    p.add_argument("--scheme", default="pl", help="as in fit (default pl)")
    p.add_argument(
        "--method",
        default="weights",
        choices=("weights", "bootstrap"),
        help="random score weights or nonparametric bootstrap",
    )
    p.add_argument(
        "-B", "--draws", type=int, default=1000, help="number of draws (default 1000)"
    )
    p.add_argument("--seed", type=int, help="RNG seed (generated and printed if absent)")
    p.add_argument(
        "--ties", default="breslow", choices=("breslow", "efron"), help="tie handling"
    )
    p.add_argument(
        "--jobs",
        type=int,
        help="parallel workers (default one per available CPU where processes "
        "fork, else 1; serial below 32 draws)",
    )
    p.add_argument("--out", help="write draws CSV (one column per coefficient)")
    p.set_defaults(func=cmd_resample)

    p = sub.add_parser("km-export", help="export survival curves for plotting")
    p.add_argument("csv", help="dataset CSV")
    p.add_argument(
        "--family",
        help="also export a fitted parametric curve: exponential | weibull "
        "| pwexp:cut1,cut2,...",
    )
    p.add_argument(
        "--out-prefix", help="output file prefix (default: the CSV's stem)"
    )
    p.set_defaults(func=cmd_km_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, FitError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
