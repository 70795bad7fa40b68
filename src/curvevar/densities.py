"""Curvature energy densities E(H, K) with exact partial derivatives.

A density carries its value and the five partials E_H, E_K, E_HH, E_HK,
E_KK used by the variation formulas, its third partials, plus an optional
domain guard (for example H > 0 for non-integer powers of the mean
curvature). The built-in densities are sums of monomials c H^i K^j whose
partials are written down directly; ``density_from_expr`` differentiates
a user's sympy expression instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, GuardViolation

# the stored partials as (order in H, order in K)
_PARTIALS = {"eval": (0, 0), "E_H": (1, 0), "E_K": (0, 1), "E_HH": (2, 0), "E_HK": (1, 1), "E_KK": (0, 2)}
_THIRD = {"HHH": (3, 0), "HHK": (2, 1), "HKK": (1, 2), "KKK": (0, 3)}


@dataclass(frozen=True)
class EnergyDensity:
    name: str
    eval: Callable
    E_H: Callable
    E_K: Callable
    E_HH: Callable
    E_HK: Callable
    E_KK: Callable
    domain_guard: Optional[Callable] = None
    params: dict = field(default_factory=dict)
    # optional third partials ("HHH", "HHK", "HKK", "KKK"); when present the
    # Euler-Lagrange residual can differentiate composed fields analytically
    third: Optional[dict] = None

    def check_guard(self, H, K) -> None:
        if self.domain_guard is None:
            return
        ok = np.asarray(self.domain_guard(np.asarray(H), np.asarray(K)))
        if not np.all(ok):
            node = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
            raise GuardViolation(
                f"density '{self.name}' is outside its domain at node {node} "
                f"(H={np.asarray(H)[node]:.6g})",
                node=node,
            )

    def guarded(self, H, K, *names: str) -> tuple:
        """The named partials ("eval", "E_H", ..., "HHH", ...) at (H, K) after
        the domain guard; GuardViolation at the first node where one is not
        finite."""
        self.check_guard(H, K)
        with np.errstate(all="ignore"):
            out = tuple((self.third[name] if name in _THIRD else getattr(self, name))(H, K) for name in names)
        for name, x in zip(names, out):
            if not np.all(np.isfinite(x)):
                node = tuple(int(i) for i in np.unravel_index(np.argmin(np.isfinite(x)), x.shape))
                raise GuardViolation(
                    f"density '{self.name}' is not finite at node {node}: {name} = {x[node]} at "
                    f"H={np.asarray(H)[node]:.6g}, K={np.asarray(K)[node]:.6g}",
                    node=node,
                )
        return out


def _scalarize(fn):
    def f(H, K):
        H = np.asarray(H, dtype=float)
        K = np.asarray(K, dtype=float)
        return np.broadcast_to(np.asarray(fn(H, K), dtype=float), np.broadcast(H, K).shape).copy()

    return f


def density_from_expr(expr, name: str, domain_guard=None, params: dict | None = None) -> EnergyDensity:
    """Build a density from a sympy expression in the symbols H and K."""
    import sympy as sp

    H, K = sp.symbols("H K", real=True)
    expr = sp.sympify(expr)
    expr = expr.xreplace({s: (H if s.name == "H" else K) for s in expr.free_symbols if s.name in ("H", "K")})
    extra = [s for s in expr.free_symbols if s not in (H, K)]
    if extra:
        raise ConfigError(f"density expression has unknown symbols: {extra}")

    def fn(i, j):
        return _scalarize(sp.lambdify((H, K), sp.diff(expr, H, i, K, j), modules="numpy"))

    fns = {key: fn(*ij) for key, ij in _PARTIALS.items()}
    third = {key: fn(*ij) for key, ij in _THIRD.items()}
    return EnergyDensity(name=name, domain_guard=domain_guard, params=dict(params or {}), third=third, **fns)


def _falling(x: float, n: int) -> float:
    """x (x - 1) ... (x - n + 1): the factor d^n/dx^n x^e brings down."""
    return math.prod(x - k for k in range(n))


def _monomial_partial(terms, i: int, j: int):
    """d^i_H d^j_K of sum c H^p K^q over the (c, p, q) in ``terms``, as a
    grid function. Integer powers stay integer, so no negative power of H
    or K is formed where an exact partial vanishes."""
    parts = []
    for c, p, q in terms:
        coef = c * _falling(p, i) * _falling(q, j)
        if coef != 0.0:
            parts.append((coef, p - i, q - j))

    def f(H, K):
        H = np.asarray(H, dtype=float)
        K = np.asarray(K, dtype=float)
        out = np.zeros(np.broadcast(H, K).shape)
        for coef, p, q in parts:
            term = coef
            if p != 0:
                term = term * H**p
            if q != 0:
                term = term * K**q
            out = out + term
        return out

    return f


def _monomial_density(terms, name: str, domain_guard=None, params: dict | None = None) -> EnergyDensity:
    """Density sum c H^p K^q from (c, p, q) terms: q a non-negative integer,
    p an integer or, for H^p with non-integer p, a real exponent."""
    fns = {key: _monomial_partial(terms, *ij) for key, ij in _PARTIALS.items()}
    third = {key: _monomial_partial(terms, *ij) for key, ij in _THIRD.items()}
    return EnergyDensity(name=name, domain_guard=domain_guard, params=dict(params or {}), third=third, **fns)


def willmore(k0: float = 0.0) -> EnergyDensity:
    return _monomial_density([(1.0, 2, 0), (k0, 0, 0)], "willmore", params={"k0": k0})


def bending(k0: float = 0.0) -> EnergyDensity:
    return _monomial_density([(1.0, 2, 0), (-1.0, 0, 1), (k0, 0, 0)], "bending", params={"k0": k0})


def helfrich(kc: float = 1.0, c0: float = 0.0, kbar: float = 0.0) -> EnergyDensity:
    # kc (2H + c0)^2 + kbar K, expanded
    terms = [(4.0 * kc, 2, 0), (4.0 * kc * c0, 1, 0), (kc * c0**2, 0, 0), (kbar, 0, 1)]
    return _monomial_density(terms, "helfrich", params={"kc": kc, "c0": c0, "kbar": kbar})


def pwillmore(p: float) -> EnergyDensity:
    """H^p; exact integer powers for integer p, guard H > 0 otherwise."""
    if p < 1:
        raise ConfigError("pwillmore exponent must be >= 1")
    if float(p).is_integer():
        power = int(p)
        guard = None
    else:
        power = float(p)
        guard = lambda H, K: H > 0
    return _monomial_density([(1.0, power, 0)], "pwillmore", domain_guard=guard, params={"p": float(p)})


def ksquared() -> EnergyDensity:
    return _monomial_density([(1.0, 0, 2)], "ksquared")


def area_density() -> EnergyDensity:
    return _monomial_density([(1.0, 0, 0)], "area")


BUILTIN_DENSITIES = ("willmore", "bending", "helfrich", "pwillmore", "ksquared", "area")


def builtin_density(name: str, **params) -> EnergyDensity:
    if name == "willmore":
        return willmore(params.get("k0", 0.0))
    if name == "bending":
        return bending(params.get("k0", 0.0))
    if name == "helfrich":
        return helfrich(params.get("kc", 1.0), params.get("c0", 0.0), params.get("kbar", 0.0))
    if name == "pwillmore":
        if "p" not in params:
            raise ConfigError("pwillmore requires the exponent p")
        return pwillmore(params["p"])
    if name == "ksquared":
        return ksquared()
    if name == "area":
        return area_density()
    raise ConfigError(f"unknown density '{name}' (have: {', '.join(BUILTIN_DENSITIES)})")
