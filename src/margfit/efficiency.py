"""Asymptotic relative efficiency of the parametric-weighted estimator.

Under a proportional hazards design — unit baseline hazard, Bernoulli(p)
covariate, lognormal(0, sigma) censoring — the efficiency of the
marginal-weighted estimator relative to partial likelihood is

    R = Sigma_1^2 / (Sigma_0 Sigma_2),

with Sigma_0 = int A(b0, t) P(C >= t) dt, Sigma_1 = int A(b0, t) dt,
Sigma_2 = int A(b0, t) / P(C >= t) dt, and

    A(b, t) = (1-p) e^{-t} p e^b exp(-t e^b)
              / [ (1-p) e^{-t} + p e^b exp(-t e^b) ].

The reference table's 't_c' is the lognormal parameter; whether it is the
log-scale standard deviation or variance is ambiguous in print, so both
readings are implemented (``sigma_role``), defaulting to the one that
reproduces the printed ratios.

This is the package's only SciPy user, and it imports SciPy inside the
functions that run the quadrature, so ``import margfit`` loads none of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FitError
from .marginal import _expand

__all__ = [
    "AREConfig",
    "AREResult",
    "sigma_integrals",
    "relative_efficiency",
    "censoring_fraction",
    "are_table",
]

# integrand values this far below their peak are treated as numerically zero
_TAIL_RATIO = 1e-14
# relative tolerance of every quadrature
_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class AREConfig:
    """One efficiency cell: coefficient, covariate frequency, censoring scale."""

    beta0: float
    p: float
    t_c: float
    sigma_role: str = "log_sd"

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ConfigError("p must be in (0, 1)")
        if not 0 < self.t_c < np.inf:
            raise ConfigError("t_c must be positive and finite")
        if self.sigma_role not in ("log_sd", "log_var"):
            raise ConfigError("sigma_role must be 'log_sd' or 'log_var'")
        if not np.isfinite(self.beta0):
            raise ConfigError("beta0 must be finite")

    @property
    def sigma(self) -> float:
        """Lognormal log-scale standard deviation under the chosen role."""
        return self.t_c if self.sigma_role == "log_sd" else float(np.sqrt(self.t_c))


@dataclass(frozen=True)
class AREResult:
    sigma0: float
    sigma1: float
    sigma2: float
    ratio: float
    censoring_fraction: float
    config: AREConfig


def _log_a(beta: float, p: float, t: np.ndarray) -> np.ndarray:
    """log A(beta, t), evaluated in log space (no overflow for large t)."""
    la = np.log1p(-p) - t
    lb = np.log(p) + beta - t * np.exp(beta)
    return la + lb - np.logaddexp(la, lb)


def _log_censor_sf(t: np.ndarray, sigma: float) -> np.ndarray:
    """log P(C >= t) for C ~ lognormal(0, sigma); 0 at t <= 0.

    ``log_ndtr(-x)`` is ``norm.logsf(x)`` without the distribution
    machinery, which dominates when ``quad`` asks for one point at a time.
    """
    from scipy.special import log_ndtr

    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        x = np.where(t > 0, np.log(np.maximum(t, 1e-300)) / sigma, -np.inf)
    return log_ndtr(-x)


def _upper_limit(config: AREConfig) -> float:
    """Truncation point past which the slowest-decaying integrand is negligible.

    Sigma_2's integrand A / P(C >= t) decays slowest. Its peak is taken on a
    fixed grid over [1e-8, 50]; the cut is the first power of two at or past
    that peak where the integrand is below _TAIL_RATIO of it. The tail always
    falls: log A falls like -t, log P(C >= t) only like -(log t)^2.
    """
    sigma = config.sigma

    def log_integrand2(t):
        return _log_a(config.beta0, config.p, t) - _log_censor_sf(t, sigma)

    grid = np.concatenate(([1e-8], np.geomspace(1e-4, 50.0, 200)))
    values = log_integrand2(grid)
    peak_t, cut = grid[np.argmax(values)], values.max() + np.log(_TAIL_RATIO)
    return _expand(
        lambda t: t >= peak_t and log_integrand2(t) < cut, 2.0, "the efficiency tail"
    )


def sigma_integrals(config: AREConfig) -> tuple[float, float, float]:
    """(Sigma_0, Sigma_1, Sigma_2) by adaptive quadrature on [0, T].

    T is ``_upper_limit``'s cut: the Sigma_2 integrand dominates the other
    two pointwise after scaling, so one cut serves all three. The relative
    tolerance of every quadrature here is fixed at 1e-10. A Sigma_2 past the
    float range overflows to inf and is refused with FitError.
    """
    from scipy.integrate import quad

    sigma = config.sigma
    upper = _upper_limit(config)
    b0, p = config.beta0, config.p

    def f0(t):
        return np.exp(_log_a(b0, p, t) + _log_censor_sf(t, sigma))

    def f1(t):
        return np.exp(_log_a(b0, p, t))

    def f2(t):
        return np.exp(_log_a(b0, p, t) - _log_censor_sf(t, sigma))

    vals = []
    for f in (f0, f1, f2):
        with np.errstate(over="ignore"):
            v, err = quad(f, 0.0, upper, epsabs=0.0, epsrel=_QUAD_TOL, limit=200)
        if not np.isfinite(v) or v <= 0.0:
            raise FitError("efficiency integral is not a positive finite number")
        vals.append(float(v))
    return vals[0], vals[1], vals[2]


def censoring_fraction(config: AREConfig) -> float:
    """P(T is censored) under the design: T|Z ~ Exp(e^{beta0 Z}), C lognormal.

    P(C < T) = sum_z P(Z = z) int_0^inf r_z e^{-r_z t} P(C < t) dt with
    r_z = e^{beta0 z}.
    """
    from scipy.integrate import quad

    sigma = config.sigma
    total = 0.0
    for z, pz in ((0.0, 1.0 - config.p), (1.0, config.p)):
        rate = float(np.exp(config.beta0 * z))
        upper = 745.0 / rate  # e^{-rate t} underflows past this point

        def f(t, rate=rate):
            return rate * np.exp(-rate * t) * (1.0 - np.exp(_log_censor_sf(t, sigma)))

        v, _ = quad(f, 0.0, upper, epsabs=0.0, epsrel=_QUAD_TOL, limit=200)
        total += pz * float(v)
    return total


def relative_efficiency(config: AREConfig) -> AREResult:
    """One efficiency cell: the ratio Sigma_1^2 / (Sigma_0 Sigma_2)."""
    s0, s1, s2 = sigma_integrals(config)
    ratio = s1 * s1 / (s0 * s2)
    return AREResult(
        sigma0=s0,
        sigma1=s1,
        sigma2=s2,
        ratio=float(ratio),
        censoring_fraction=censoring_fraction(config),
        config=config,
    )


def are_table(
    beta0s=(0.5, 1.0, 2.0),
    t_cs=(1.0, 0.5),
    ps=(0.25, 0.5, 0.75),
    sigma_role: str = "log_sd",
) -> list[AREResult]:
    """The full efficiency grid, row-major in (t_c, beta0, p)."""
    return [
        relative_efficiency(AREConfig(beta0=b0, p=p, t_c=t_c, sigma_role=sigma_role))
        for t_c in t_cs
        for b0 in beta0s
        for p in ps
    ]
