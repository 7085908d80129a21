"""Right-censored survival data with covariates.

The central container is :class:`SurvivalDataset`: observed times
``X_i = min(T_i, C_i)``, event indicators ``delta_i = I(T_i <= C_i)`` and a
fixed covariate vector ``Z_i`` per subject, stored sorted by time. Risk-set
statistics ``S^(r)(beta, t)``, the at-risk covariate mean ``E(beta, t)`` and
variance ``V(beta, t)`` are computed here; they are the building blocks of
every estimator in :mod:`margfit.estimate`.

``_risk_set_sums`` is the package's only risk-set kernel over a sample:
every estimator uses its sums, for one beta or for a batch of them, over
an index that ``_risk_set_index`` prepares once per sample. (The
population oracle in :mod:`margfit.simulate` integrates over the design's
laws instead.)
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import DataError

__all__ = [
    "SurvivalDataset",
    "RiskSetStats",
    "load_csv",
    "save_csv",
    "freireich",
    "risk_set_stats",
]


@dataclass(frozen=True)
class SurvivalDataset:
    """A validated, time-sorted sample of right-censored observations.

    Parameters
    ----------
    time : ndarray, shape (n,)
        Observed times, nonnegative, sorted ascending (sorting is applied
        by the constructor; ties keep input order).
    status : ndarray, shape (n,)
        Event indicators, 1 = event ("died"), 0 = censored.
    covariates : ndarray, shape (n, d)
        Time-fixed covariate vectors. Time-varying covariates are out of
        scope for this package.
    """

    time: np.ndarray
    status: np.ndarray
    covariates: np.ndarray
    n: int = field(init=False)
    d: int = field(init=False)
    n_events: int = field(init=False)

    def __post_init__(self) -> None:
        time = np.asarray(self.time, dtype=float)
        status = np.asarray(self.status)
        z = np.atleast_2d(np.asarray(self.covariates, dtype=float))
        if z.shape[0] == 1 and time.size > 1 and z.shape[1] == time.size:
            z = z.T
        if time.ndim != 1 or time.size == 0:
            raise DataError("time must be a nonempty 1-d array")
        if status.shape != time.shape:
            raise DataError("status and time must have the same length")
        if z.shape[0] != time.size:
            raise DataError(
                f"covariate rows ({z.shape[0]}) do not match subject count ({time.size})"
            )
        if not np.all(np.isfinite(time)) or np.any(time < 0):
            raise DataError("times must be finite and nonnegative")
        if not np.all((status == 0) | (status == 1)):
            raise DataError("status values must be 0 or 1")
        if not np.all(np.isfinite(z)):
            raise DataError("covariates must be finite")
        if np.any((time == 0) & (status == 1)):
            raise DataError("zero-time events are not allowed (degenerate risk set)")
        order = np.argsort(time, kind="stable")
        object.__setattr__(self, "time", np.ascontiguousarray(time[order]))
        object.__setattr__(self, "status", np.ascontiguousarray(status[order].astype(np.int8)))
        object.__setattr__(self, "covariates", np.ascontiguousarray(z[order]))
        object.__setattr__(self, "n", int(time.size))
        object.__setattr__(self, "d", int(z.shape[1]))
        object.__setattr__(self, "n_events", int(self.status.sum()))

    def require_events(self) -> None:
        if self.n_events == 0:
            raise DataError("dataset has no events; fitting requires at least one")


@dataclass(frozen=True)
class RiskSetStats:
    """The moments S^(0), S^(1), S^(2) of the risk set at (beta, t).

    ``s0`` is the scalar (1/n) sum of exp(beta'Z) over subjects at risk,
    ``s1`` and ``s2`` the matching first and second covariate moments,
    ``e = s1/s0`` the tilted covariate mean, ``v = s2/s0 - e e'`` the
    tilted covariate variance.
    """

    s0: float
    s1: np.ndarray
    s2: np.ndarray
    e: np.ndarray
    v: np.ndarray
    n_at_risk: int


def _risk_set_index(z: np.ndarray, at):
    """The beta-free part of ``_risk_set_sums`` over covariates ``z`` at rows ``at``.

    ``z`` (n, d) holds time-sorted covariates; row k of each sum will run
    over rows ``at[k]``, ..., n - 1, which is a risk set when ``at[k]`` is
    the first row at its time. Returns (rev, z reversed, z z' reversed):
    the sums' positions in time-reversed order and the reversed covariates
    and their outer products, (n, d) and (n, d, d).
    """
    rev = z.shape[0] - 1 - np.asarray(at)
    z = z[::-1]
    return rev, z, z[:, :, None] * z[:, None, :]


def _risk_set_sums(index, w: np.ndarray):
    """Reverse cumulative sums of w, w z and w z z' over ``index``'s risk sets.

    ``index`` is ``_risk_set_index(z, at)`` and ``w`` (..., n) the tilts
    exp(beta'Z) of its covariates, one row of tilts per beta along any
    leading batch axes. The sums are unnormalized and C-ordered, of shapes
    (..., m), (..., m, d) and (..., m, d, d) for m rows in ``at``. Returns
    ``(s0, s1, s2)``. Each batch row is summed in the order it would be
    alone, so its sums keep their bits in any batch.
    """
    rev, z, zz = index
    w = w[..., ::-1, None]
    s0 = w[..., 0].cumsum(axis=-1).take(rev, axis=-1)
    s1 = (w * z).cumsum(axis=-2).take(rev, axis=-2)
    s2 = (w[..., None] * zz).cumsum(axis=-3).take(rev, axis=-3)
    return s0, s1, s2


def risk_set_stats(data: SurvivalDataset, beta: np.ndarray, t: float) -> RiskSetStats:
    """Evaluate S^(r)(beta, t) for r = 0, 1, 2 and the derived E, V.

    Parameters
    ----------
    data : SurvivalDataset
    beta : array-like, shape (d,)
    t : float
        Time point; subjects with X_i >= t form the risk set.

    Raises
    ------
    DataError
        If the risk set at ``t`` is empty (t beyond the last observed
        time) or ``beta`` has the wrong length.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape != (data.d,):
        raise DataError(f"beta must have length {data.d}, got {beta.shape}")
    if t < 0:
        raise DataError("t must be nonnegative")
    start = int(np.searchsorted(data.time, t, side="left"))
    m = data.n - start
    if m == 0:
        raise DataError(f"empty risk set at t={t} (beyond last observed time)")
    z = data.covariates[start:]
    sums = _risk_set_sums(_risk_set_index(z, [0]), np.exp(z @ beta))
    s0, s1, s2 = (s[0] / data.n for s in sums)
    e = s1 / s0
    v = s2 / s0 - np.outer(e, e)
    return RiskSetStats(s0=float(s0), s1=s1, s2=s2, e=e, v=v, n_at_risk=m)


def _read_table(path, header_rule):
    """The data rows of the CSV table at ``path``, as floats.

    The first row, stripped, must equal ``header_rule(width)`` for its own
    width. Blank lines are skipped; every other row must have the header's
    width and hold numbers. Errors name the file and the line. Returns
    (line numbers, rows as an (m, width) array).
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        expected = header_rule(len(header))
        if header != expected:
            raise DataError(
                f"{path}: header must be {','.join(expected)!r}, got {header!r}"
            )
        lines, rows = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {reader.line_num}: expected {len(header)} "
                    f"fields, got {len(row)}"
                )
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
            lines.append(reader.line_num)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return lines, np.array(rows)


def _write_table(path, header, rows) -> None:
    """Write ``rows`` under ``header`` as CSV, with LF line ends everywhere.

    A string cell is written as it is and any other by ``repr``, so a float
    reads back to the same bits. Pass NumPy values as ``.tolist()``: the
    repr of a NumPy 2 scalar is ``np.float64(...)``. A path that cannot be
    written is a DataError.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(c if isinstance(c, str) else repr(c) for c in row)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _dataset_header(width: int) -> list[str]:
    """The dataset header of ``width`` columns: time, status, z1, ..., with
    at least one covariate."""
    return ["time", "status", *(f"z{k}" for k in range(1, max(width, 3) - 1))]


def load_csv(path) -> SurvivalDataset:
    """Read a dataset from CSV with header ``time,status,z1,...,zd``.

    Errors name the file and the offending line. Decimal point is ``.``;
    no thousands separators.
    """
    lines, rows = _read_table(path, _dataset_header)
    for lineno, (t, s) in zip(lines, rows[:, :2].tolist()):
        if t < 0:
            raise DataError(f"{path}: negative time at line {lineno}")
        if s not in (0.0, 1.0):
            raise DataError(f"{path}: status outside {{0,1}} at line {lineno}")
    return SurvivalDataset(rows[:, 0], rows[:, 1], rows[:, 2:])


def save_csv(data: SurvivalDataset, path) -> None:
    """Write a dataset in the CSV table format ``load_csv`` reads.

    The header is ``time,status,z1,...,zd``; times and covariates are
    written by ``repr``, so ``load_csv`` reads back the same bits.
    """
    rows = zip(data.time.tolist(), data.status.tolist(), data.covariates.tolist())
    _write_table(path, _dataset_header(data.d + 2), ([t, s, *z] for t, s, z in rows))


def freireich() -> SurvivalDataset:
    """The classic 42-subject leukemia remission trial.

    Remission durations in weeks for 6-MP versus placebo; ``z1 = 1``
    codes the placebo group, so a positive coefficient means a higher
    relapse hazard on placebo. 30 events, 12 censored.
    """
    with resources.as_file(resources.files("margfit.data") / "freireich.csv") as path:
        return load_csv(path)
