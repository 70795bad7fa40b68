"""Built-in surface catalog with exact jets.

Each chart is one entry of ``_CHARTS``. Its terms c * f(u) * g(v) per
ambient component have factors 1, cos/sin(w x), cosh/sinh(w x) or x^n,
whose k-th derivatives are known in closed form, so the jets to order 4
(and the position map) are evaluated with numpy alone. A sample is
checked (``surface.check_immersion``) and oriented before anything is
cached on it: H > 0 at the node of largest |H|, unless the surface is
minimal there (sphere: H = +1/r, i.e. inward normal).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .curvature import curvature_scalars
from .errors import ConfigError
from .spaceform import SpaceForm
from .surface import MULTI_INDICES, PatchDomain, Provenance, SurfaceSample, _empty_planes, check_immersion

# a univariate factor is (kind, w): cos/sin/cosh/sinh of w*x, or x^w for
# kind "pow" (w a non-negative integer); _ONE = x^0 is never evaluated
_ONE = ("pow", 0)
_COS, _SIN = ("cos", 1.0), ("sin", 1.0)
_COS_CYCLE = ((1.0, "cos"), (-1.0, "sin"), (-1.0, "cos"), (1.0, "sin"))  # d^k cos(x), k mod 4


def _round(r: float) -> list:
    """r (cos u sin v, sin u sin v, cos v) as terms (component, c, f(u), g(v))."""
    return [(0, r, _COS, _SIN), (1, r, _SIN, _SIN), (2, r, _ONE, _COS)]


# per chart: its parameters with their defaults, and as functions of the
# parameters p (floats, defaults merged in) the PatchDomain arguments of
# its default domain, its space form, the refusal when p fails the chart's
# condition (else falsy) and its terms (component, c, f(u), g(v))
_Chart = namedtuple("_Chart", "params domain space refusal terms")
_LAT_LONG = dict(u_range=(0.0, 2.0 * np.pi), v_range=(0.0, np.pi), periodic_u=True, pole_offset=True)
_DOUBLY_PERIODIC = dict(u_range=(0.0, 2.0 * np.pi), v_range=(0.0, 2.0 * np.pi), periodic_u=True, periodic_v=True)
_CHARTS = {
    "sphere": _Chart(
        {"r": 1.0}, lambda p: _LAT_LONG, lambda p: SpaceForm.euclidean(),
        lambda p: p["r"] <= 0 and "sphere radius must be positive",
        lambda p: _round(p["r"]),
    ),
    "torus": _Chart(
        {"R": 2.0, "a": 1.0}, lambda p: _DOUBLY_PERIODIC, lambda p: SpaceForm.euclidean(),
        lambda p: not p["R"] > p["a"] > 0 and "torus needs R > a > 0",
        # (R + a cos v) (cos u, sin u), a sin v
        lambda p: [(0, p["R"], _COS, _ONE), (0, p["a"], _COS, _COS), (1, p["R"], _SIN, _ONE), (1, p["a"], _SIN, _COS), (2, p["a"], _ONE, _SIN)],
    ),
    "catenoid": _Chart(
        {"c": 1.0, "s_max": 1.2}, lambda p: dict(u_range=(0.0, 2.0 * np.pi), v_range=(-p["s_max"], p["s_max"]), periodic_u=True),
        lambda p: SpaceForm.euclidean(),
        lambda p: p["c"] <= 0 and "catenoid scale must be positive",
        lambda p: [(0, p["c"], _COS, ("cosh", 1.0 / p["c"])), (1, p["c"], _SIN, ("cosh", 1.0 / p["c"])), (2, 1.0, _ONE, ("pow", 1))],
    ),
    "graph": _Chart(
        {"coeffs": {(2, 0): 1.0, (0, 2): 1.0}}, lambda p: dict(u_range=(-1.0, 1.0), v_range=(-1.0, 1.0)),
        lambda p: SpaceForm.euclidean(),
        lambda p: None,
        lambda p: [(0, 1.0, ("pow", 1), _ONE), (1, 1.0, _ONE, ("pow", 1))]
        + [(2, c, ("pow", int(i)), ("pow", int(j))) for (i, j), c in p["coeffs"].items()],
    ),
    "geodesic_sphere_S3": _Chart(
        {"a": np.pi / 4, "rho": 1.0}, lambda p: _LAT_LONG, lambda p: SpaceForm.sphere(p["rho"]),
        lambda p: not 0 < p["a"] < np.pi * p["rho"] and "geodesic radius must lie in (0, pi*rho)",
        lambda p: _round(p["rho"] * math.sin(p["a"] / p["rho"])) + [(3, p["rho"] * math.cos(p["a"] / p["rho"]), _ONE, _ONE)],
    ),
    "clifford_torus_S3": _Chart(
        {"rho": 1.0}, lambda p: _DOUBLY_PERIODIC, lambda p: SpaceForm.sphere(p["rho"]),
        lambda p: None,
        lambda p: [(k, p["rho"] / math.sqrt(2.0), fu, fv) for k, (fu, fv) in enumerate([(_COS, _ONE), (_SIN, _ONE), (_ONE, _COS), (_ONE, _SIN)])],
    ),
}
CATALOG_NAMES = tuple(_CHARTS)


def _exponent_pair(ij) -> bool:
    """Whether a graph ``coeffs`` key is a pair (i, j) of non-negative integers."""
    try:
        i, j = ij
        return int(i) == i >= 0 and int(j) == j >= 0
    except (TypeError, ValueError, OverflowError):
        return False


def _params(name: str, params: dict | None) -> dict:
    """The chart's parameters: the given ones over its defaults, as floats.
    Refuses an unknown name, keys the chart does not take, values that are
    not finite numbers and graph exponents (i, j) that are not non-negative
    integers, naming the key."""
    if name not in _CHARTS:
        raise ConfigError(f"unknown catalog surface '{name}' (have: {', '.join(CATALOG_NAMES)})")
    p = dict(_CHARTS[name].params)
    for key, val in dict(params or {}).items():
        if key not in p:
            raise ConfigError(f"{name} takes no parameter '{key}' (takes: {', '.join(p)})")
        if key == "coeffs" and not isinstance(val, dict):
            raise ConfigError(f"{name} parameter 'coeffs' must be a mapping {{(i, j): c}} (got {val!r})")
        for ij in val if key == "coeffs" else ():
            if not _exponent_pair(ij):
                raise ConfigError(f"{name} parameter 'coeffs' keys must be pairs (i, j) of non-negative integers (got key {ij!r})")
        for x in val.values() if key == "coeffs" else (val,):
            try:
                finite = math.isfinite(float(x))
            except (TypeError, ValueError):
                raise ConfigError(f"{name} parameter '{key}' must be a number (got {x!r})") from None
            if not finite:
                raise ConfigError(f"{name} parameter '{key}' must be finite (got {x!r})")
        p[key] = {ij: float(c) for ij, c in val.items()} if key == "coeffs" else float(val)
    return p


def default_domain(name: str, params: dict | None = None, nu: int = 128, nv: int = 64) -> PatchDomain:
    """The chart's default domain at nu x nv nodes. Refuses a name or
    parameter as ``sample_builtin`` does; rho and the chart's condition are
    checked by ``sample_builtin`` alone."""
    p = _params(name, params)
    return PatchDomain(nu=nu, nv=nv, **_CHARTS[name].domain(p))


def _factor_derivative(f, k: int):
    """d^k f as (scale, factor), or None where it vanishes."""
    kind, w = f
    if kind == "pow":
        return (float(math.perm(w, k)), ("pow", w - k)) if k <= w else None
    if kind in ("cosh", "sinh"):
        flip = {"cosh": "sinh", "sinh": "cosh"}[kind]
        return w**k, (kind if k % 2 == 0 else flip, w)
    sign, kind = _COS_CYCLE[(k + (0 if kind == "cos" else 3)) % 4]  # sin = d^3 cos
    return sign * w**k, (kind, w)


def _factor_values(f, X) -> np.ndarray:
    kind, w = f
    if kind == "pow":
        return X if w == 1 else X**w
    return getattr(np, kind)(X if w == 1.0 else w * X)


class ChartBundle:
    """Closed-form jets and position map of one catalog chart."""

    def __init__(self, name: str, params: dict, sf: SpaceForm):
        self.dim = sf.ambient_dim
        p = _params(name, params)
        if refusal := _CHARTS[name].refusal(p):
            raise ConfigError(refusal)
        terms = _CHARTS[name].terms(p)
        # per multi-index: the terms of d^a_u d^b_v r as (component, coefficient,
        # u factor, v factor), a factor None where it is 1
        self.plans = {}
        for a, b in MULTI_INDICES:
            plan = {}
            for comp, c, fu, fv in terms:
                du, dv = _factor_derivative(fu, a), _factor_derivative(fv, b)
                if du is None or dv is None:
                    continue
                key = (comp, None if du[1] == _ONE else du[1], None if dv[1] == _ONE else dv[1])
                plan[key] = plan.get(key, 0.0) + c * du[0] * dv[0]
            self.plans[(a, b)] = [key + (coef,) for key, coef in plan.items()]

    def evaluate(self, U, V, indices) -> list:
        """The jets d^a_u d^b_v r for (a, b) in ``indices`` at the chart
        points (U, V), shape (..., dim) laid out component-major (each
        component one contiguous array, ``_empty_planes``). Each distinct
        factor is evaluated once per call, and factors equal to 1 not at
        all. Each term is formed in its component's plane, or in one scratch
        plane and added there, left to right."""
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        shape = np.broadcast(U, V).shape
        values = {}
        scratch = np.empty(shape)

        def factor(f, X, axis):
            if (axis, f) not in values:
                values[axis, f] = _factor_values(f, X)
            return values[axis, f]

        out = []
        for ab in indices:
            jet = _empty_planes(shape + (self.dim,), float)
            started = [False] * self.dim
            for comp, fu, fv, coef in self.plans[ab]:
                dst = scratch if started[comp] else jet[..., comp]
                arrays = ([factor(fu, U, 0)] if fu else []) + ([factor(fv, V, 1)] if fv else [])
                if not arrays:
                    dst[...] = coef
                else:
                    np.multiply(coef, arrays[0], out=dst)  # exact when coef is 1
                    for x in arrays[1:]:
                        dst *= x
                if started[comp]:
                    jet[..., comp] += scratch
                started[comp] = True
            for comp in range(self.dim):
                if not started[comp]:
                    jet[..., comp] = 0.0
            out.append(jet)
        return out

    def position_map(self, U, V) -> np.ndarray:
        return self.evaluate(U, V, ((0, 0),))[0]


@lru_cache(maxsize=32)
def _bundle(name: str, params_key: tuple, sf: SpaceForm) -> ChartBundle:
    """The bundle of the given parameters, keyed as ``sample_builtin`` keys
    them (``coeffs`` as its sorted items)."""
    return ChartBundle(name, {k: dict(v) if isinstance(v, tuple) else v for k, v in params_key}, sf)


def _check_poles(name: str, bundle: ChartBundle, domain: PatchDomain) -> None:
    """Refuse a pole-offset domain unless the chart maps each end of
    v_range to a single point (a pole), across which it continues."""
    for v in domain.v_range:
        p = bundle.position_map(domain.u_nodes, np.full(domain.nu, float(v)))
        spread = float(np.max(np.abs(p - p[0])))
        if spread > 1e-12 * max(1.0, float(np.max(np.abs(p)))):
            raise ConfigError(
                f"{name}: a pole-offset chart needs a pole at both ends of v_range = {domain.v_range}, but "
                f"the chart's points at v = {float(v):g} are not a single point (spread {spread:.2e})"
            )


def sample_builtin(name: str, params: dict | None = None, domain: PatchDomain | None = None) -> SurfaceSample:
    """Exact-jet sample of a catalog surface, checked and oriented as the
    module docstring says, in Euclidean space or, for the S^3 charts, the
    sphere of radius ``rho``. A pole-offset domain must end at poles of the
    chart in v (``ConfigError`` naming v_range otherwise)."""
    params = dict(params or {})
    p = _params(name, params)
    sf = _CHARTS[name].space(p)
    if domain is None:
        domain = default_domain(name, params)
    key = tuple(sorted((k, float(v) if not isinstance(v, dict) else tuple(sorted(v.items()))) for k, v in params.items()))
    bundle = _bundle(name, key, sf)
    if domain.axes[1].kind == "pole":
        _check_poles(name, bundle, domain)

    jets = dict(zip(MULTI_INDICES, bundle.evaluate(*domain.meshes(), MULTI_INDICES)))
    s = SurfaceSample(domain, sf, jets, provenance=Provenance.ANALYTIC, position_map=bundle.position_map, name=name)
    check_immersion(s, where=name)
    H = curvature_scalars(s).H
    return s.flipped() if H.flat[np.argmax(np.abs(H))] < -1e-9 else s
