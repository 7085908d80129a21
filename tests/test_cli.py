"""Command-line interface: commands, file outputs and exit codes."""

from __future__ import annotations

import contextlib
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from margfit import (
    BetaFunction,
    ConfigError,
    Exponential,
    GeneratorSpec,
    Parametric,
    StudyConfig,
    SurvivalDataset,
    kaplan_meier,
    load_csv,
    load_external_curve,
    save_csv,
)
from margfit.cli import main


@pytest.fixture(scope="module")
def leukemia_csv(tmp_path_factory, leukemia):
    path = tmp_path_factory.mktemp("data") / "leukemia.csv"
    save_csv(leukemia, path)
    return str(path)


@pytest.fixture(scope="module")
def uncensored_csv(tmp_path_factory, uncensored_sample):
    path = tmp_path_factory.mktemp("data") / "uncensored.csv"
    save_csv(uncensored_sample, path)
    return str(path)


class TestFit:
    def test_default_is_partial_likelihood(self, leukemia_csv, capsys):
        assert main(["fit", leukemia_csv]) == 0
        out = capsys.readouterr().out
        assert "1.5092 (0.4096)" in out
        assert "scheme: constant" in out

    def test_efron(self, leukemia_csv, capsys):
        assert main(["fit", leukemia_csv, "--ties", "efron"]) == 0
        assert "1.5721 (0.4124)" in capsys.readouterr().out

    def test_parametric_scheme_reports_marginal(self, leukemia_csv, capsys):
        assert main(["fit", leukemia_csv, "--scheme", "par:exponential"]) == 0
        out = capsys.readouterr().out
        assert "1.5246 (0.4192)" in out
        assert "marginal:" in out and "exponential" in out

    def test_km_equals_pl_when_uncensored(self, uncensored_csv, tmp_path):
        out_pl = tmp_path / "pl.json"
        out_km = tmp_path / "km.json"
        assert main(["fit", uncensored_csv, "--out", str(out_pl)]) == 0
        assert main(["fit", uncensored_csv, "--scheme", "km", "--out", str(out_km)]) == 0
        pl = json.loads(out_pl.read_text())
        km = json.loads(out_km.read_text())
        assert pl["schema"] == 1 and km["schema"] == 1
        assert abs(pl["beta"][0] - km["beta"][0]) < 1e-9

    def test_curve_scheme(self, leukemia_csv, leukemia, tmp_path, capsys):
        from margfit import save_curve

        curve_path = tmp_path / "km.csv"
        save_curve(kaplan_meier(leukemia), curve_path)
        assert main(["fit", leukemia_csv, "--scheme", f"curve:{curve_path}"]) == 0
        # supplying the data's own product-limit curve reproduces the km fit
        assert "1.5203" in capsys.readouterr().out

    def test_pwexp_scheme_with_cuts(self, leukemia_csv, capsys):
        assert main(["fit", leukemia_csv, "--scheme", "par:pwexp:10"]) == 0
        assert "1.5206" in capsys.readouterr().out

    def test_weibull_scheme(self, leukemia_csv, capsys):
        assert main(["fit", leukemia_csv, "--scheme", "par:weibull"]) == 0
        assert "1.5193" in capsys.readouterr().out


class TestExitCodes:
    def test_missing_file_is_3(self, capsys):
        assert main(["fit", "/nonexistent/data.csv"]) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_bad_scheme_is_2(self, leukemia_csv, capsys):
        assert main(["fit", leukemia_csv, "--scheme", "mystery"]) == 2

    def test_weighted_efron_is_2(self, leukemia_csv):
        assert main(["fit", leukemia_csv, "--scheme", "km", "--ties", "efron"]) == 2
        # the option check runs before a marginal fit that would fail (exit 4)
        argv = ["fit", leukemia_csv, "--scheme", "par:pwexp:1000", "--ties", "efron"]
        assert main(argv) == 2

    def test_nan_curve_is_3(self, leukemia_csv, tmp_path):
        curve = tmp_path / "curve.csv"
        curve.write_text("time,survival\n0,1\n5,nan\n")
        assert main(["fit", leukemia_csv, "--scheme", f"curve:{curve}"]) == 3

    def test_malformed_study_document_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        bad = [("n", "abc"), ("n", 100.7), ("seed", 1.5), ("reps", True), ("n", "120")]
        bad.append(("target_censorship", 0.5))  # misspelt: an unknown key
        for key, value in bad:
            cfg.write_text(json.dumps(dict(TestSimulate.CONFIG, **{key: value})))
            assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 2
            assert f"'{key}'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_results.*"))

    @pytest.mark.parametrize("command", ["resample", "simulate"])
    def test_jobs_below_one_is_2(self, command, leukemia_csv, tmp_path, capsys):
        if command == "resample":
            argv = ["resample", leukemia_csv, "-B", "5", "--seed", "1"]
        else:
            cfg = tmp_path / "demo.json"
            cfg.write_text(json.dumps(TestSimulate.CONFIG))
            argv = ["simulate", str(cfg), "--out-dir", str(tmp_path)]
        assert main([*argv, "--jobs", "-3"]) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err

    def test_solver_failure_is_4(self, tmp_path):
        rng = np.random.default_rng(2)
        z1 = rng.normal(size=40)
        d = SurvivalDataset(
            time=rng.exponential(size=40),
            status=np.ones(40, dtype=int),
            covariates=np.column_stack([z1, 2.0 * z1]),
        )
        p = tmp_path / "collinear.csv"
        save_csv(d, p)
        assert main(["fit", str(p)]) == 4

    def test_malformed_csv_is_3(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,status,z1\noops,1,0\n")
        assert main(["fit", str(p)]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "{csv}", "--out", "{missing}/fit.json"],
            ["are", "--beta0", "1", "--tc", "1", "--p", "0.5", "--out", "{missing}/g.csv"],
            ["resample", "{csv}", "-B", "4", "--seed", "1", "--out", "{missing}/d.csv"],
            ["km-export", "{csv}", "--out-prefix", "{missing}/k"],
        ],
        ids=["fit", "are", "resample", "km-export"],
    )
    def test_unwritable_output_is_3(self, argv, leukemia_csv, tmp_path, capsys):
        missing = tmp_path / "missing"
        argv = [a.format(csv=leukemia_csv, missing=missing) for a in argv]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot write {missing}/")
        assert err.count("\n") == 1

    def test_simulate_directory_is_3(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {tmp_path}: ")
        assert err.count("\n") == 1

    def test_simulate_out_dir_that_is_a_file_is_3(self, tmp_path, capsys):
        cfg = tmp_path / "demo.json"
        cfg.write_text(json.dumps(TestSimulate.CONFIG))
        argv = ["simulate", str(cfg), "--out-dir", str(cfg)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(f"data error: cannot write {cfg}: ")

    def test_argparse_errors_are_2(self):
        assert main(["frobnicate"]) == 2
        assert main([]) == 2
        assert main(["fit"]) == 2

    def test_help_is_0(self):
        assert main(["--help"]) == 0

    def test_unknown_bundled_config_is_2(self, capsys):
        assert main(["simulate", "table9"]) == 2


class TestAre:
    def test_default_grid(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["are", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 19
        header = lines[0].split(",")
        assert header[:5] == ["beta0", "t_c", "p", "ratio", "censoring_percent"]
        first = dict(zip(header, lines[1].split(",")))
        assert float(first["ratio"]) == pytest.approx(0.797, abs=0.01)
        assert first["sigma_role"] == "log_sd"

    def test_single_cell(self, capsys):
        assert main(["are", "--beta0", "2", "--tc", "1", "--p", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "0.990" in out and "30%" in out

    def test_log_var_role(self, capsys):
        assert (
            main(
                ["are", "--beta0", "0.5", "--tc", "0.5", "--p", "0.25",
                 "--sigma-role", "log_var"]
            )
            == 0
        )
        assert "0.626" in capsys.readouterr().out

    def test_bad_p_is_2(self):
        assert main(["are", "--p", "0"]) == 2
        # numbers from flags must be finite
        assert main(["are", "--tc", "inf"]) == 2

    def test_bad_float_list_is_2(self):
        assert main(["are", "--beta0", "one,two"]) == 2


class TestSimulate:
    CONFIG = {
        "label": "cli-demo",
        "baseline": {"family": "exponential", "rate": 2.0, "role": "marginal"},
        "beta": {"constant": 1.0},
        "covariate": {"kind": "uniform01"},
        "censoring_family": "none",
        "target_censoring": 0.0,
        "n": 120,
        "reps": 3,
        "seed": 5,
    }

    def test_runs_and_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "demo.json"
        cfg.write_text(json.dumps(self.CONFIG))
        assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "seed: 5" in out
        assert "cli-demo" in out
        results = json.loads((tmp_path / "demo_results.json").read_text())
        assert results["schema"] == 1
        assert len(results["studies"]) == 1
        csv_lines = (tmp_path / "demo_results.csv").read_text().splitlines()
        assert len(csv_lines) == 2

    def test_bundled_name_is_read_while_its_file_exists(self, tmp_path, monkeypatch):
        """A zip install's bundled file exists only inside ``as_file``; the
        configs are read there, and the four studies of table1 come back
        without running."""
        from margfit import cli

        @contextlib.contextmanager
        def as_temporary_file(ref):
            path = tmp_path / ref.name
            path.write_bytes(ref.read_bytes())
            try:
                yield path
            finally:
                path.unlink()

        monkeypatch.setattr(cli.resources, "as_file", as_temporary_file)
        monkeypatch.chdir(tmp_path)
        stem, configs = cli._load_configs("table1")
        assert stem == "table1"
        assert [(c.label, c.target_censoring) for c in configs] == [
            ("ph-beta-1.0", 0.0),
            ("ph-beta-1.0", 0.5),
            ("ph-beta-0.5", 0.0),
            ("ph-beta-0.5", 0.5),
        ]
        assert not list(tmp_path.iterdir())

    def test_seed_override_and_jobs_identity(self, tmp_path):
        cfg = tmp_path / "demo.json"
        cfg.write_text(json.dumps(self.CONFIG))
        d1, d2, d3 = (tmp_path / s for s in ("a", "b", "c"))
        for d in (d1, d2, d3):
            d.mkdir()
        assert main(["simulate", str(cfg), "--out-dir", str(d1), "--seed", "77"]) == 0
        assert main(["simulate", str(cfg), "--out-dir", str(d2), "--seed", "77"]) == 0
        assert (
            main(
                ["simulate", str(cfg), "--out-dir", str(d3), "--seed", "77",
                 "--jobs", "2"]
            )
            == 0
        )
        ref = (d1 / "demo_results.csv").read_bytes()
        assert (d2 / "demo_results.csv").read_bytes() == ref
        assert (d3 / "demo_results.csv").read_bytes() == ref
        # the override is recorded in the sidecar
        doc = json.loads((d1 / "demo_results.json").read_text())
        assert doc["studies"][0]["seed"] == 77

    @pytest.mark.parametrize("command", ["resample", "simulate"])
    def test_default_jobs_write_the_serial_bytes(self, command, leukemia_csv, tmp_path):
        # three blocks of draws or replications, so the default may use the pool
        cfg = tmp_path / "demo.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, n=50, reps=40)))
        written = []
        for jobs in (["--jobs", "1"], []):
            out = tmp_path / f"out{len(written)}"
            out.mkdir()
            if command == "resample":
                argv = ["resample", leukemia_csv, "-B", "40", "--seed", "1"]
                argv += ["--out", str(out / "draws.csv")]
            else:
                argv = ["simulate", str(cfg), "--out-dir", str(out)]
            assert main([*argv, *jobs]) == 0
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert written[0] and written[1] == written[0]

    def test_studies_fitting_different_estimators(self, tmp_path, capsys):
        # each study's default parametric family is its baseline's
        weibull = {"family": "weibull", "shape": 1.3, "scale": 0.6, "role": "marginal"}
        cfg = tmp_path / "mixed.json"
        cfg.write_text(
            json.dumps([self.CONFIG, dict(self.CONFIG, label="wb", baseline=weibull)])
        )
        assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert "par:exponential   par:weibull" in capsys.readouterr().out
        header, exp_row, wb_row = (
            line.split(",")
            for line in (tmp_path / "mixed_results.csv").read_text().splitlines()
        )
        doc = json.loads((tmp_path / "mixed_results.json").read_text())
        fitted = [study["estimators"] for study in doc["studies"]]
        assert [list(f) for f in fitted] == [
            ["km", "par:exponential", "pl"],
            ["km", "par:weibull", "pl"],
        ]
        for row, estimators in zip((exp_row, wb_row), fitted):
            cells = dict(zip(header, row))
            for name in ("pl", "km", "par:exponential", "par:weibull"):
                want = estimators.get(name, {"mean": "", "sd": ""})
                got = {x: cells[f"{name}_{x}"] for x in ("mean", "sd")}
                assert got == {x: str(v) for x, v in want.items()}


    def test_labels_with_commas_and_quotes_keep_their_columns(self, tmp_path):
        labels = ["a,b", 'say "hi"']
        cfg = tmp_path / "quoted.json"
        cfg.write_text(json.dumps([dict(self.CONFIG, label=x) for x in labels]))
        assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "quoted_results.csv", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        # DictReader files surplus cells under None and fills missing ones with None
        assert all(None not in row and None not in row.values() for row in rows)
        assert [len(row) for row in rows] == [len(reader.fieldnames)] * 2
        assert [row["label"] for row in rows] == labels


class TestResample:
    def test_weights_run_with_output(self, leukemia_csv, tmp_path, capsys):
        out = tmp_path / "draws.csv"
        assert (
            main(
                ["resample", leukemia_csv, "-B", "40", "--seed", "42",
                 "--out", str(out)]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "random-weight" in text
        assert "analytic se" in text
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "beta1" and len(lines) == 41

    def test_missing_seed_is_generated_and_printed(self, leukemia_csv, capsys):
        assert main(["resample", leukemia_csv, "-B", "4"]) == 0
        assert "seed:" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["weights", "bootstrap"])
    def test_negative_seed_is_a_usage_error(self, leukemia_csv, capsys, method):
        argv = ["resample", leukemia_csv, "--method", method, "-B", "10", "--seed", "-3"]
        assert main(argv) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err

    def test_bootstrap_method(self, leukemia_csv, capsys):
        assert (
            main(
                ["resample", leukemia_csv, "--method", "bootstrap", "-B", "20",
                 "--seed", "1"]
            )
            == 0
        )
        assert "bootstrap" in capsys.readouterr().out

    def test_deterministic_across_invocations(self, leukemia_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert (
                main(
                    ["resample", leukemia_csv, "-B", "30", "--seed", "9",
                     "--out", str(out)]
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()


class TestKmExport:
    def test_km_curve_round_trips(self, leukemia, leukemia_csv, tmp_path, capsys):
        prefix = str(tmp_path / "leuk")
        assert main(["km-export", leukemia_csv, "--out-prefix", prefix]) == 0
        curve = load_external_curve(f"{prefix}_km.csv")
        km = kaplan_meier(leukemia)
        assert np.array_equal(curve.jump_times, km.jump_times)
        assert np.array_equal(curve.values, km.values)

    def test_written_files_end_lines_in_lf(self, leukemia, tmp_path):
        # a saved dataset and the exported curves end lines in "\n" alone, as
        # the study, draws and grid CSVs do, and still read back exactly
        data_path = tmp_path / "leuk.csv"
        save_csv(leukemia, data_path)
        prefix = str(tmp_path / "leuk")
        args = ["km-export", str(data_path), "--family", "exponential"]
        assert main(args + ["--out-prefix", prefix]) == 0
        paths = sorted(tmp_path.iterdir())
        names = ["leuk.csv", "leuk_exponential.csv", "leuk_km.csv"]
        assert [p.name for p in paths] == names
        for path in paths:
            assert b"\r" not in path.read_bytes(), path.name
        back = load_csv(data_path)
        for attr in ("time", "status", "covariates"):
            assert np.array_equal(getattr(back, attr), getattr(leukemia, attr))
        curve = load_external_curve(f"{prefix}_km.csv")
        km = kaplan_meier(leukemia)
        assert np.array_equal(curve.jump_times, km.jump_times)
        assert np.array_equal(curve.values, km.values)

    def test_parametric_export_is_smoother(self, leukemia_csv, tmp_path):
        prefix = str(tmp_path / "leuk")
        assert (
            main(
                ["km-export", leukemia_csv, "--family", "exponential",
                 "--out-prefix", prefix]
            )
            == 0
        )
        km = load_external_curve(f"{prefix}_km.csv")
        par = load_external_curve(f"{prefix}_exponential.csv")
        # the fitted curve moves in many small steps, the product-limit in
        # few large ones: compare the largest single drop
        assert np.abs(np.diff(par.values)).max() < np.abs(
            np.diff(km.values)
        ).max()

    def test_pwexp_family(self, leukemia_csv, tmp_path):
        prefix = str(tmp_path / "leuk")
        assert (
            main(
                ["km-export", leukemia_csv, "--family", "pwexp:10",
                 "--out-prefix", prefix]
            )
            == 0
        )
        curve = load_external_curve(f"{prefix}_pwexp.csv")
        assert curve.values[-1] < 0.3

    def test_bad_family_is_2_and_writes_nothing(self, leukemia_csv):
        parent = Path(leukemia_csv).parent
        before = set(parent.iterdir())
        assert main(["km-export", leukemia_csv, "--family", "gamma"]) == 2
        assert set(parent.iterdir()) == before
        assert not Path("leukemia_km.csv").exists()

    def test_default_prefix_sits_next_to_the_input(self, leukemia, tmp_path):
        csv = tmp_path / "sub" / "leukemia.csv"
        csv.parent.mkdir()
        save_csv(leukemia, csv)
        assert main(["km-export", str(csv)]) == 0
        assert (tmp_path / "sub" / "leukemia_km.csv").exists()
        assert not Path("leukemia_km.csv").exists()


# (family name, accepted); bare pwexp has no cuts and names the exponential fit
FAMILY_NAMES = [
    ("exponential", True),
    ("weibull", True),
    ("pwexp", True),
    ("pwexp:10", True),
    ("pwexp:5,15", True),
    ("gamma", False),
    ("pwexp:x", False),
    ("pwexp:", False),
    ("weibull:2", False),
    ("pwexp:nan", False),
    ("pwexp:inf", False),
    ("pwexp:-1", False),
    ("pwexp:0", False),
    ("pwexp:2,1", False),
]


class TestFamilyGrammar:
    """Every entry point reads a parametric family name the same way."""

    @pytest.mark.parametrize("name,valid", FAMILY_NAMES)
    def test_one_grammar(self, name, valid, leukemia_csv, tmp_path):
        spec = GeneratorSpec(
            baseline=Exponential(rate=2.0), beta=BetaFunction.constant(1.0)
        )

        def study():
            return StudyConfig(spec=spec, n=10, reps=1, seed=0, families_to_fit=(name,))

        code = 0 if valid else 2
        prefix = str(tmp_path / "leuk")
        assert main(["fit", leukemia_csv, "--scheme", f"par:{name}"]) == code
        assert (
            main(["km-export", leukemia_csv, "--family", name, "--out-prefix", prefix])
            == code
        )
        assert Path(f"{prefix}_km.csv").exists() == valid
        if valid:
            assert Parametric(name).model == name
            assert study().families_to_fit == (name,)
        else:
            with pytest.raises(ConfigError):
                Parametric(name)
            with pytest.raises(ConfigError):
                study()
