"""Shared fixtures: the bundled clinical dataset and small synthetic samples."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import margfit
from margfit import SurvivalDataset, freireich


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def leukemia() -> SurvivalDataset:
    """The bundled 42-subject two-arm trial (21 + 21, 30 events)."""
    return freireich()


@pytest.fixture(scope="session")
def uncensored_sample() -> SurvivalDataset:
    """300 uncensored exponential survivors with a uniform covariate."""
    rng = np.random.default_rng(7)
    z = rng.random(300)
    t = rng.exponential(scale=np.exp(-z))
    return SurvivalDataset(time=t, status=np.ones(300, dtype=int), covariates=z[:, None])


@pytest.fixture(scope="session")
def censored_sample() -> SurvivalDataset:
    """400 subjects, exponential failure and uniform censoring (~40% censored)."""
    rng = np.random.default_rng(11)
    z = rng.random(400)
    t = rng.exponential(scale=np.exp(-0.8 * z)) / 2.0
    c = rng.uniform(0.0, 1.2, size=400)
    x = np.minimum(t, c)
    status = (t <= c).astype(int)
    return SurvivalDataset(time=x, status=status, covariates=z[:, None])


@pytest.fixture(scope="session")
def fresh_python():
    """Run Python ``code`` in a fresh interpreter that imports this margfit;
    it must exit 0. Returns its standard output. With ``script``, ``code`` is
    written to that file and run from it, as a user's script is."""
    env = dict(os.environ)
    src = str(Path(margfit.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(code: str, script: Path | None = None) -> str:
        if script is None:
            argv = [sys.executable, "-c", code]
        else:
            script.write_text(code)
            argv = [sys.executable, str(script)]
        proc = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
