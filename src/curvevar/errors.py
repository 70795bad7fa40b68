"""Exception types shared across the package, and the input checks that
more than one module makes."""

import math

import numpy as np


class CurveVarError(Exception):
    """Base class for all package errors."""


class ConfigError(CurveVarError):
    """Malformed or inconsistent user configuration."""


class NotTangentError(CurveVarError):
    """Vector fails the tangency precondition on an embedded model."""


class DegenerateMetricError(CurveVarError):
    """Induced metric is (numerically) singular; the map is not an immersion."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class GuardViolation(CurveVarError):
    """Energy density evaluated outside its domain guard (e.g. H <= 0)."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class NotCriticalError(CurveVarError):
    """Second-variation formula requested away from a critical immersion."""


def _first_node(mask) -> tuple:
    """The index of the first True entry of a boolean array of any ndim,
    as a tuple of ints: the node a refusal names."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(mask), np.shape(mask)))


def _require_radius(r, what: str, name: str) -> None:
    """Refuse a radius r unless it is positive and finite (NaN and inf
    included) and r^2 and 1/r^2 are finite and nonzero floats, so that
    neither an area scale nor a curvature 1/r^2 overflows or vanishes."""
    if not (math.isfinite(r) and r > 0):
        raise ConfigError(f"{what} must be positive and finite (got {name} = {r})")
    sq = float(r) * float(r)
    if not (0.0 < sq < math.inf and 1.0 / sq < math.inf):
        raise ConfigError(f"{what} must have {name}^2 and 1/{name}^2 finite and nonzero (got {name} = {r})")


def _require_exponent(p) -> None:
    """Refuse an H^p exponent p < 1, NaN or infinite."""
    if not (math.isfinite(p) and p >= 1):
        raise ConfigError(f"exponent p must be >= 1 and finite (got p = {p})")
