"""The Laplacian spectrum of the round sphere, in closed form.

Imports no numpy, so the ``spectrum`` subcommand runs without it.
"""

from __future__ import annotations

import math
from typing import Tuple

from .errors import ConfigError, _require_radius


def sphere_spectrum(k: int, r: float = 1.0) -> Tuple[float, int]:
    """Eigenvalue and multiplicity of the k-th Laplacian eigenvalue on
    S^2(r): lambda_k = k(k+1)/r^2 with multiplicity C(k+2, 2)."""
    if k < 0:
        raise ConfigError("spectrum index must be >= 0")
    _require_radius(r, "sphere radius", "r")
    try:
        lam = k * (k + 1) / float(r) ** 2
    except OverflowError:  # k (k + 1) is an int too large for a float
        lam = math.inf
    if not math.isfinite(lam):
        raise ConfigError(f"spectrum index k is too large: lambda_k = k(k+1)/r^2 is not a finite float (r = {r})")
    return lam, math.comb(k + 2, 2)
