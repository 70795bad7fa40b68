"""Curvature energy densities E(H, K) with exact partial derivatives.

A density is one table, ``partials[(i, j)]`` = d^i_H d^j_K E for every
order i + j <= 3 (``ORDERS``), with an optional domain guard (for example
H > 0 for non-integer powers of H). The built-in densities are sums of
monomials c H^i K^j whose partials are written down directly;
``density_from_expr`` differentiates a user's sympy expression instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, GuardViolation, _first_node, _require_exponent

# the orders (i, j) of the partials d^i_H d^j_K E a density carries, by
# total order, with the names messages give them
ORDERS = {(0, 0): "eval", (1, 0): "E_H", (0, 1): "E_K", (2, 0): "E_HH", (1, 1): "E_HK", (0, 2): "E_KK",
          (3, 0): "HHH", (2, 1): "HHK", (1, 2): "HKK", (0, 3): "KKK"}


@dataclass(frozen=True)
class EnergyDensity:
    name: str
    partials: dict  # (i, j) -> d^i_H d^j_K E, for every order in ORDERS
    domain_guard: Optional[Callable] = None

    def __post_init__(self):
        for ij, key in ORDERS.items():
            if ij not in self.partials:
                raise ConfigError(f"density '{self.name}' lacks the partial {key} (order {ij})")

    def check_guard(self, H, K) -> None:
        if self.domain_guard is None:
            return
        ok = np.asarray(self.domain_guard(np.asarray(H), np.asarray(K)))
        if not np.all(ok):
            node = _first_node(np.logical_not(ok))
            raise GuardViolation(
                f"density '{self.name}' is outside its domain at node {node} "
                f"(H={np.asarray(H)[node]:.6g})",
                node=node,
            )

    def guarded(self, H, K, *orders: tuple) -> tuple:
        """The partials of the given orders ((0, 0), (1, 0), ...) at (H, K)
        after the domain guard; GuardViolation at the first node where one
        is not finite."""
        self.check_guard(H, K)
        with np.errstate(all="ignore"):
            out = tuple(self.partials[ij](H, K) for ij in orders)
        for ij, x in zip(orders, out):
            if not np.all(np.isfinite(x)):
                node = _first_node(~np.isfinite(x))
                raise GuardViolation(
                    f"density '{self.name}' is not finite at node {node}: {ORDERS[ij]} = {x[node]} at "
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


def _sympy_partials(expr, names: tuple, orders, what: str) -> dict:
    """The partials of a user's sympy expression (or string) in the
    symbols ``names`` as numpy functions of those symbols, {order: fn} with
    order[i] the derivative order in names[i]. Free symbols are rebound by
    name to real symbols; any other free symbol is refused, naming it, on
    every call. The partials of a rebound expression are lambdified once
    and kept (``_lambdified``). Sympy is imported here, on first use."""
    import sympy as sp

    syms = sp.symbols(names, real=True)
    expr = sp.sympify(expr)
    expr = expr.xreplace({s: syms[names.index(s.name)] for s in expr.free_symbols if s.name in names})
    extra = [s for s in expr.free_symbols if s not in syms]
    if extra:
        raise ConfigError(f"{what} has unknown symbols: {extra}")
    return dict(_lambdified(expr, tuple(names), tuple(map(tuple, orders))))


@lru_cache(maxsize=32)
def _lambdified(expr, names: tuple, orders: tuple) -> dict:
    """The partials ``_sympy_partials`` returns, for an expression whose
    free symbols are among the real symbols ``names``. Lambdify gets the
    numpy module itself: the string "numpy" runs ``from numpy import *``,
    which loads numpy.f2py, numpy.testing and more, for the same source."""
    import sympy as sp

    syms = sp.symbols(names, real=True)
    return {order: sp.lambdify(syms, sp.diff(expr, *zip(syms, order)), modules=[np]) for order in orders}


def density_from_expr(expr, name: str) -> EnergyDensity:
    """Build a density from a sympy expression in the symbols H and K. It
    has no domain guard: ``EnergyDensity.guarded`` refuses the first node at
    which a partial is not finite."""
    fns = _sympy_partials(expr, ("H", "K"), tuple(ORDERS), "density expression")
    return EnergyDensity(name, {ij: _scalarize(fn) for ij, fn in fns.items()})


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


def _monomial_density(terms, name: str, domain_guard=None) -> EnergyDensity:
    """Density sum c H^p K^q from (c, p, q) terms: q a non-negative integer,
    p an integer or, for H^p with non-integer p, a real exponent."""
    return EnergyDensity(name, {ij: _monomial_partial(terms, *ij) for ij in ORDERS}, domain_guard)


def willmore(k0: float = 0.0) -> EnergyDensity:
    return _monomial_density([(1.0, 2, 0), (k0, 0, 0)], "willmore")


def bending(k0: float = 0.0) -> EnergyDensity:
    return _monomial_density([(1.0, 2, 0), (-1.0, 0, 1), (k0, 0, 0)], "bending")


def helfrich(kc: float = 1.0, c0: float = 0.0, kbar: float = 0.0) -> EnergyDensity:
    # kc (2H + c0)^2 + kbar K, expanded
    terms = [(4.0 * kc, 2, 0), (4.0 * kc * c0, 1, 0), (kc * c0**2, 0, 0), (kbar, 0, 1)]
    return _monomial_density(terms, "helfrich")


def pwillmore(p: float) -> EnergyDensity:
    """H^p; exact integer powers for integer p, guard H > 0 otherwise."""
    _require_exponent(p)
    if float(p).is_integer():
        power = int(p)
        guard = None
    else:
        power = float(p)
        guard = lambda H, K: H > 0
    return _monomial_density([(1.0, power, 0)], "pwillmore", domain_guard=guard)


def ksquared() -> EnergyDensity:
    return _monomial_density([(1.0, 0, 2)], "ksquared")


def area_density() -> EnergyDensity:
    return _monomial_density([(1.0, 0, 0)], "area")


# name -> (constructor, the parameters it takes); the defaults are the
# constructors' own
_BUILTINS = {
    "willmore": (willmore, ("k0",)),
    "bending": (bending, ("k0",)),
    "helfrich": (helfrich, ("kc", "c0", "kbar")),
    "pwillmore": (pwillmore, ("p",)),
    "ksquared": (ksquared, ()),
    "area": (area_density, ()),
}
BUILTIN_DENSITIES = tuple(_BUILTINS)


def builtin_density(name: str, **params) -> EnergyDensity:
    """The built-in density ``name`` with the given parameters; a key the
    density does not take is refused, naming it."""
    if name not in _BUILTINS:
        raise ConfigError(f"unknown density '{name}' (have: {', '.join(BUILTIN_DENSITIES)})")
    make, takes = _BUILTINS[name]
    extra = ", ".join(map(repr, sorted(set(params) - set(takes))))
    if extra:
        raise ConfigError(f"density '{name}' does not take {extra} (it takes: {', '.join(takes) or 'nothing'})")
    if name == "pwillmore" and "p" not in params:
        raise ConfigError("pwillmore requires the exponent p")
    return make(**params)
