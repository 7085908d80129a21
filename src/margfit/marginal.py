"""Marginal survival models: Kaplan-Meier, parametric families, external curves.

A marginal model is anything whose ``survival(t)`` is a survival function,
``S(0) = 1``, nonincreasing. Step models (``StepSurvival``: the Kaplan-Meier
curve, or an external curve read from a file) evaluate the left-continuous
version: ``S(t)`` is the value *before* any jump at ``t``, which is the
convention the weighted estimators require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Union

import numpy as np

from .dataset import SurvivalDataset, _read_table, _write_table
from .errors import ConfigError, DataError, FitError

__all__ = [
    "StepSurvival",
    "Exponential",
    "Weibull",
    "PiecewiseExponential",
    "MarginalModel",
    "kaplan_meier",
    "fit_exponential",
    "fit_weibull",
    "fit_piecewise_exponential",
    "parse_family",
    "fit_family",
    "model_params",
    "load_external_curve",
    "save_curve",
]


def _positive_ascending(cuts) -> bool:
    """Cut points are finite, positive and strictly ascending (NaN fails)."""
    c = np.asarray(cuts, dtype=float)
    return bool(np.all(np.isfinite(c) & (c > 0)) and np.all(np.diff(c) > 0))


@dataclass(frozen=True)
class StepSurvival:
    """A left-continuous step survival function.

    ``jump_times`` are the ascending discontinuity points; ``values[k]`` is
    the function value on ``(jump_times[k], jump_times[k+1]]``, i.e. *after*
    the k-th jump. Before the first jump the value is 1.
    """

    jump_times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.jump_times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise DataError("jump_times and values must be 1-d arrays of equal length")
        # every test below is written so that NaN fails it
        if not (np.all(np.isfinite(t) & (t >= 0)) and np.all(np.diff(t) > 0)):
            raise DataError(
                "jump times must be finite, strictly ascending and nonnegative"
            )
        if not (np.all((v >= 0) & (v <= 1)) and np.all(np.diff(v) <= 1e-12)):
            raise DataError("survival values must be nonincreasing within [0, 1]")
        object.__setattr__(self, "jump_times", t)
        object.__setattr__(self, "values", v)

    def survival(self, t):
        """Evaluate S(t), left-continuously: jumps at t do not count yet."""
        idx = np.searchsorted(self.jump_times, np.asarray(t, dtype=float))
        out = np.concatenate(([1.0], self.values))[idx]
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if not 0 < self.rate < np.inf:
            raise DataError("exponential rate must be positive and finite")

    def survival(self, t):
        return np.exp(-self.rate * np.asarray(t, dtype=float))

    def cumulative_hazard(self, t):
        return self.rate * np.asarray(t, dtype=float)

    def inverse_cumulative_hazard(self, u):
        """Time t with H(t) = u; stable for u too large for the survival scale."""
        return np.asarray(u, dtype=float) / self.rate


@dataclass(frozen=True)
class Weibull:
    shape: float
    scale: float

    def __post_init__(self):
        if not (0 < self.shape < np.inf and 0 < self.scale < np.inf):
            raise DataError("Weibull shape and scale must be positive and finite")

    def survival(self, t):
        return np.exp(-self.cumulative_hazard(t))

    def cumulative_hazard(self, t):
        return (np.asarray(t, dtype=float) / self.scale) ** self.shape

    def inverse_cumulative_hazard(self, u):
        return self.scale * np.asarray(u, dtype=float) ** (1.0 / self.shape)


@dataclass(frozen=True)
class PiecewiseExponential:
    """Constant hazard ``rates[k]`` on the k-th interval between ``cuts``."""

    cuts: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        cuts = tuple(float(c) for c in self.cuts)
        rates = tuple(float(r) for r in self.rates)
        if len(rates) != len(cuts) + 1:
            raise DataError("need exactly one more rate than cuts")
        if not all(0 < r < np.inf for r in rates):
            raise DataError("piecewise rates must be positive and finite")
        if not _positive_ascending(cuts):
            raise DataError("cuts must be finite, positive and strictly ascending")
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "rates", rates)

    def _grid(self):
        return np.concatenate(([0.0], np.asarray(self.cuts, dtype=float)))

    def cumulative_hazard(self, t):
        t = np.asarray(t, dtype=float)
        lo = self._grid()
        hi = np.append(lo[1:], np.inf)
        rates = np.asarray(self.rates)
        seg = np.clip(t[..., None] - lo, 0.0, hi - lo)
        out = seg @ rates
        return out if out.ndim else float(out)

    def survival(self, t):
        return np.exp(-self.cumulative_hazard(t))

    def inverse_cumulative_hazard(self, u):
        target = np.asarray(u, dtype=float)
        lo = self._grid()
        rates = np.asarray(self.rates)
        widths = np.diff(lo)
        cum = np.concatenate(([0.0], np.cumsum(rates[:-1] * widths)))
        idx = np.searchsorted(cum, target, side="right") - 1
        idx = np.clip(idx, 0, len(rates) - 1)
        out = lo[idx] + (target - cum[idx]) / rates[idx]
        return out if out.ndim else float(out)


MarginalModel = Union[Exponential, Weibull, PiecewiseExponential, StepSurvival]

# the family name of each parametric model class, as documents and fits name it
_FAMILIES = {
    "exponential": Exponential,
    "weibull": Weibull,
    "pwexp": PiecewiseExponential,
}


def kaplan_meier(data: SurvivalDataset) -> StepSurvival:
    """Product-limit estimate of the marginal survival function.

    Returns the step function whose left-continuous evaluation gives
    ``S(t) = prod_{t_j < t} (1 - d_j / n_j)``. All-censored data yield
    the constant function 1. If the last observation is censored the
    curve is held constant beyond it.
    """
    # the times are stored sorted: each distinct time is a run of equal values
    time = data.time
    starts = np.flatnonzero(np.concatenate(([True], time[1:] != time[:-1])))
    deaths = np.add.reduceat(data.status, starts, dtype=float)
    at_risk = data.n - starts
    keep = deaths > 0
    if not keep.any():
        return StepSurvival(np.empty(0), np.empty(0))
    factors = 1.0 - deaths[keep] / at_risk[keep]
    return StepSurvival(time[starts[keep]], np.cumprod(factors))


def fit_exponential(data: SurvivalDataset) -> Exponential:
    """Censored maximum-likelihood exponential fit: rate = events / exposure."""
    data.require_events()  # an event's time is positive: so is the exposure
    return Exponential(rate=data.n_events / float(data.time.sum()))


def _expand(found, factor: float, what: str) -> float:
    """The first of 1, factor, factor**2, ... (200 tries) at which ``found`` holds."""
    x = 1.0
    for _ in range(200):
        if found(x):
            return x
        x *= factor
    raise FitError(f"could not bracket {what}")


def _brentq(f, a, b, xtol, rtol=8.881784197001252e-16, maxiter=100) -> float:
    """A root of ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of SciPy's ``Zeros/brentq.c`` (SciPy 1.17): the same
    float operations in the same order, so its roots are
    ``scipy.optimize.brentq``'s bit for bit (``tests/test_simulate.py``).
    ``rtol`` defaults to SciPy's 4 eps. Ends of the same sign, a NaN value
    and running out of ``maxiter`` iterations raise FitError.
    """

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise FitError(f"root finder: the function is NaN at x={x}")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise FitError("root finder: f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (
                    -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise FitError(f"root finder did not converge in {maxiter} iterations")


def fit_weibull(data: SurvivalDataset) -> Weibull:
    """Censored maximum-likelihood Weibull fit via the profile likelihood.

    The scale is profiled out (``scale^shape = sum t_i^shape / events``); the
    profile score in the shape, ``1/k + mean log t over events - sum t^k log t
    / sum t^k``, falls strictly in k. Its root is bracketed from k = 1 by
    halving and doubling, then solved by Brent's method to ``xtol = 1e-15``.
    Zero times carry no likelihood information and are left out. Fewer than
    two distinct event times, or sums of t**shape that leave the float range
    on the way to the root, are a FitError.
    """
    events = data.status == 1
    if np.unique(data.time[events]).size < 2:
        raise FitError("Weibull fit needs at least two distinct event times")
    keep = data.time > 0
    t, events = data.time[keep], events[keep]
    m = float(events.sum())
    logt = np.log(t)
    ev_logt = float(logt[events].sum())

    @lru_cache(maxsize=None)  # the searches share shapes: one evaluation each
    def score(k: float) -> float:
        # t**k may leave the float range on the way to a bracket: refused below
        with np.errstate(over="ignore", invalid="ignore"):
            tk = t**k
            s = float(tk.sum())
            s1 = float((tk * logt).sum())
        if not (0.0 < s < math.inf and math.isfinite(s1)):
            raise FitError(
                "degenerate Weibull profile likelihood: the sums of t**shape "
                f"leave the float range at shape {k:.6g}"
            )
        return 1.0 / k + ev_logt / m - s1 / s

    lo = _expand(lambda k: score(k) > 0.0, 0.5, "the Weibull shape from below")
    hi = _expand(lambda k: score(k) < 0.0, 2.0, "the Weibull shape from above")
    k = _brentq(score, lo, hi, xtol=1e-15)
    scale = (float((t**k).sum()) / m) ** (1.0 / k)
    return Weibull(shape=k, scale=scale)


def fit_piecewise_exponential(
    data: SurvivalDataset, cuts: tuple[float, ...] = ()
) -> PiecewiseExponential | Exponential:
    """Interval-wise occurrence/exposure MLE of a piecewise-constant hazard.

    ``rate_k = events in interval k / person-time at risk in interval k``.
    With no cuts this is exactly :func:`fit_exponential`. An interval with
    no exposure or no failures has no positive rate: a ``FitError``.
    """
    cuts = tuple(float(c) for c in cuts)
    if not cuts:
        return fit_exponential(data)
    if not _positive_ascending(cuts):
        raise DataError("cuts must be finite, positive and strictly ascending")
    data.require_events()
    lo = np.concatenate(([0.0], cuts))
    hi = np.append(cuts, np.inf)
    t = data.time[:, None]
    exposure = np.clip(t - lo, 0.0, hi - lo).sum(axis=0)
    in_interval = (t >= lo) & (t < hi)
    deaths = (in_interval * (data.status[:, None] == 1)).sum(axis=0).astype(float)
    if np.any(exposure <= 0):
        k = int(np.argmax(exposure <= 0))
        raise FitError(f"interval {k} has zero exposure")
    if np.any(deaths == 0):  # its rate's MLE is 0, a survival curve with no fall
        k = int(np.argmax(deaths == 0))
        raise FitError(f"interval {k} has exposure but no failures")
    return PiecewiseExponential(cuts=cuts, rates=tuple(deaths / exposure))


# the family names parse_family reads, as its error and the CLI's help spell them
_FAMILY_NAMES = "exponential | weibull | pwexp[:cut1,cut2,...]"


def parse_family(name: str) -> tuple[str, tuple[float, ...]]:
    """A family name, one of ``_FAMILY_NAMES`` -> (family, cuts).

    Bare 'pwexp' has no cuts, i.e. the exponential. Cuts must be finite,
    positive and strictly ascending.
    """
    if name in _FAMILIES:
        return name, ()
    if not name.startswith("pwexp:"):
        raise ConfigError(f"unknown parametric family {name!r}; expected {_FAMILY_NAMES}")
    try:
        cuts = tuple(float(x) for x in name[len("pwexp:") :].split(","))
    except ValueError:
        cuts = (np.nan,)
    if not _positive_ascending(cuts):
        raise ConfigError(
            f"bad piecewise cuts in family {name!r}: cuts must be finite, "
            "positive and strictly ascending"
        )
    return "pwexp", cuts


def fit_family(
    data: SurvivalDataset, name: str
) -> Exponential | Weibull | PiecewiseExponential:
    """Maximum-likelihood fit of the family named as in :func:`parse_family`."""
    family, cuts = parse_family(name)
    if family == "weibull":
        return fit_weibull(data)
    return fit_piecewise_exponential(data, cuts)  # no cuts: the exponential


def _name_of(law, names: dict) -> str:
    """The name under which ``names`` lists the class of ``law``."""
    return next(name for name, cls in names.items() if isinstance(law, cls))


def _plain(value):
    """A field value as JSON holds it: a tuple becomes a list."""
    return list(value) if isinstance(value, tuple) else value


def _fields_doc(law) -> dict:
    """A dataclass's fields as a plain dict, tuples as lists."""
    return {f.name: _plain(getattr(law, f.name)) for f in fields(law)}


def model_params(model: Exponential | Weibull | PiecewiseExponential) -> dict:
    """A parametric model's family name and parameters, as a plain dict."""
    return {"family": _name_of(model, _FAMILIES), **_fields_doc(model)}


def _curve_header(width: int) -> list[str]:
    """A curve file's header, whatever its width."""
    return ["time", "survival"]


def load_external_curve(path) -> StepSurvival:
    """Read a two-column CSV ``time,survival`` as an external step curve.

    The curve must start at (0, 1) and be nonincreasing with values in
    [0, 1]. Evaluation is step-wise (left-continuous); no interpolation.
    Errors name the file, and the line where one line is at fault.
    """
    lines, rows = _read_table(path, _curve_header)
    if rows[0].tolist() != [0.0, 1.0]:
        raise DataError(f"{path}: line {lines[0]}: first row must be (0, 1)")
    try:
        return StepSurvival(rows[1:, 0], rows[1:, 1])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_curve(step: StepSurvival, path) -> None:
    """Write a step curve in the CSV table format ``load_external_curve``
    reads: header ``time,survival``, the origin (0, 1), then one row per
    jump, written by ``repr`` so the curve reads back to the same bits."""
    rows = zip(step.jump_times.tolist(), step.values.tolist())
    _write_table(path, _curve_header(2), [(0.0, 1.0), *rows])
