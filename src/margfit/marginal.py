"""Marginal survival models: Kaplan-Meier, parametric families, external curves.

A marginal model is anything with a survival function ``S(t)``, ``S(0) = 1``,
nonincreasing. Step models (Kaplan-Meier, external curves) evaluate the
left-continuous version: ``S(t)`` is the value *before* any jump at ``t``,
which is the convention the weighted estimators require.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .dataset import SurvivalDataset
from .errors import ConfigError, ConvergenceError, DataError, FitError

# Newton iteration budget of the Weibull shape
_WEIBULL_MAX_ITER = 100

__all__ = [
    "StepSurvival",
    "Exponential",
    "Weibull",
    "PiecewiseExponential",
    "ExternalCurve",
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

    def __call__(self, t):
        """Evaluate S(t), left-continuously: jumps at t do not count yet."""
        t = np.asarray(t, dtype=float)
        if self.jump_times.size == 0:
            out = np.ones_like(t)
            return out if out.ndim else float(out)
        idx = np.searchsorted(self.jump_times, t, side="left")
        out = np.where(idx == 0, 1.0, self.values[np.maximum(idx - 1, 0)])
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

    def inverse_survival(self, s):
        """Time t with S(t) = s."""
        return -np.log(np.asarray(s, dtype=float)) / self.rate

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

    def inverse_survival(self, s):
        return self.scale * (-np.log(np.asarray(s, dtype=float))) ** (1.0 / self.shape)

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

    def inverse_survival(self, s):
        return self.inverse_cumulative_hazard(-np.log(np.asarray(s, dtype=float)))

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


@dataclass(frozen=True)
class ExternalCurve:
    """A step survival function supplied from outside (e.g. population tables)."""

    step: StepSurvival

    def survival(self, t):
        return self.step(t)


MarginalModel = Union[Exponential, Weibull, PiecewiseExponential, ExternalCurve]

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
    times, inverse = np.unique(data.time, return_inverse=True)
    deaths = np.bincount(inverse, weights=data.status.astype(float), minlength=times.size)
    leaving = np.bincount(inverse, minlength=times.size)
    at_risk = data.n - np.concatenate(([0], np.cumsum(leaving)[:-1]))
    keep = deaths > 0
    if not keep.any():
        return StepSurvival(np.empty(0), np.empty(0))
    factors = 1.0 - deaths[keep] / at_risk[keep]
    return StepSurvival(times[keep], np.cumprod(factors))


def fit_exponential(data: SurvivalDataset) -> Exponential:
    """Censored maximum-likelihood exponential fit: rate = events / exposure."""
    data.require_events()
    exposure = float(data.time.sum())
    if exposure <= 0:
        raise FitError("zero total exposure")
    return Exponential(rate=data.n_events / exposure)


def fit_weibull(data: SurvivalDataset) -> Weibull:
    """Censored maximum-likelihood Weibull fit via the profile likelihood.

    The scale is profiled out (``scale^shape = sum t_i^shape / events``) and
    the shape solved by damped Newton on the profile score. Initialized by
    method of moments on the uncensored times, shape clamped to [0.1, 20].

    Raises
    ------
    FitError
        Fewer than two distinct event times, or degenerate data.
    ConvergenceError
        No convergence after 100 iterations.
    """
    events = data.status == 1
    if np.unique(data.time[events]).size < 2:
        raise FitError("Weibull fit needs at least two distinct event times")
    t = data.time.astype(float)
    positive = t > 0
    if not positive.all():
        # zero times carry no likelihood information for a Weibull
        t = t[positive]
        events = events[positive]
    m = float(events.sum())
    logt = np.log(t)
    ev_logt = float(logt[events].sum())

    uncens = data.time[data.status == 1]
    mean, sd = float(uncens.mean()), float(uncens.std(ddof=1))
    k = 1.0 if sd == 0 else (sd / mean) ** -1.086
    k = float(np.clip(k, 0.1, 20.0))

    def score_and_slope(k: float) -> tuple[float, float]:
        tk = t**k
        s = float(tk.sum())
        s1 = float((tk * logt).sum())
        s2 = float((tk * logt * logt).sum())
        g = 1.0 / k + ev_logt / m - s1 / s
        dg = -1.0 / k**2 - (s2 * s - s1 * s1) / s**2
        return g, dg

    for _ in range(_WEIBULL_MAX_ITER):
        g, dg = score_and_slope(k)
        if abs(g) < 1e-10:
            break
        step = -g / dg
        while k + step <= 0:
            step *= 0.5
        k += step
    else:
        raise ConvergenceError("Weibull shape iteration did not converge")
    g, _ = score_and_slope(k)
    if abs(g) >= 1e-8:
        raise ConvergenceError("Weibull profile score not at zero after convergence")
    scale = (float((t**k).sum()) / m) ** (1.0 / k)
    return Weibull(shape=k, scale=scale)


def fit_piecewise_exponential(
    data: SurvivalDataset, cuts: tuple[float, ...] = ()
) -> PiecewiseExponential | Exponential:
    """Interval-wise occurrence/exposure MLE of a piecewise-constant hazard.

    ``rate_k = events in interval k / person-time at risk in interval k``.
    With no cuts this is exactly :func:`fit_exponential`.
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
    return PiecewiseExponential(cuts=cuts, rates=tuple(deaths / exposure))


def parse_family(name: str) -> tuple[str, tuple[float, ...]]:
    """'exponential' | 'weibull' | 'pwexp[:c1,c2,...]' -> (family, cuts).

    Bare 'pwexp' has no cuts, i.e. the exponential. Cuts must be finite,
    positive and strictly ascending.
    """
    if name in _FAMILIES:
        return name, ()
    if not name.startswith("pwexp:"):
        raise ConfigError(
            f"unknown parametric family {name!r}; expected exponential, "
            "weibull, or pwexp[:cut1,cut2,...]"
        )
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


def load_external_curve(path) -> ExternalCurve:
    """Read a two-column CSV ``time,survival`` as an external step curve.

    The curve must start at (0, 1) and be nonincreasing with values in
    [0, 1]. Evaluation is step-wise (left-continuous); no interpolation.
    """
    times: list[float] = []
    values: list[float] = []
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["time", "survival"]:
            raise DataError(f"{path}: header must be 'time,survival'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataError(f"{path}: line {lineno}: expected 2 fields")
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
    if not times:
        raise DataError(f"{path}: no data rows")
    if times[0] != 0 or values[0] != 1:
        raise DataError(f"{path}: first row must be (0, 1)")
    t = np.asarray(times[1:]) if len(times) > 1 else np.empty(0)
    v = np.asarray(values[1:]) if len(values) > 1 else np.empty(0)
    try:
        return ExternalCurve(StepSurvival(t, v))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_curve(step: StepSurvival, path) -> None:
    """Write a step curve as ``time,survival`` CSV (round-trips through
    :func:`load_external_curve`)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "survival"])
        writer.writerow([0.0, 1.0])
        for t, v in zip(step.jump_times, step.values):
            writer.writerow([repr(float(t)), repr(float(v))])
