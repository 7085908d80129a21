"""Exception hierarchy for margfit.

Every error raised by the package derives from :class:`MargfitError`, so
callers can catch one type. The CLI maps the subtypes to exit codes
(data problems -> 3, solver problems -> 4).
"""

from __future__ import annotations

__all__ = ["MargfitError", "ConfigError", "ConvergenceError", "DataError", "FitError"]


class MargfitError(Exception):
    """Base class for all margfit errors."""


class DataError(MargfitError):
    """Invalid or malformed input data (CSV contents, dataset invariants)."""


class FitError(MargfitError):
    """A fitting routine could not produce a valid result."""


class ConvergenceError(FitError):
    """An iterative solver exhausted its iteration budget."""


class ConfigError(MargfitError):
    """An invalid configuration value (study configs, CLI arguments)."""
