"""Built-in surface catalog with exact jets.

Each chart is written as a sum of separable terms c * f(u) * g(v) per
ambient component, whose factors are 1, cos/sin(w x), cosh/sinh(w x) or
x^n. Their k-th derivatives are known in closed form, so the jets to
order 4, the position map and the unit normal map are evaluated with
numpy alone. The curvature scalars H, K with their chart partials are
computed from those jets (``curvature.curvature_jets``). Catalog closed
surfaces are oriented so that H > 0 where that is meaningful (sphere:
H = +1/r, i.e. inward normal).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .curvature import curvature_jets
from .errors import ConfigError
from .spaceform import Model, SpaceForm
from .surface import MULTI_INDICES, PatchDomain, Provenance, SurfaceSample, _eps_normal

# the catalog charts and the parameters each takes
_CHART_PARAMS = {
    "sphere": ("r",),
    "torus": ("R", "a"),
    "catenoid": ("c", "s_max"),
    "graph": ("coeffs",),
    "geodesic_sphere_S3": ("a", "rho"),
    "clifford_torus_S3": ("rho",),
}
CATALOG_NAMES = tuple(_CHART_PARAMS)

# a univariate factor is (kind, w): cos/sin/cosh/sinh of w*x, or x^w for
# kind "pow" (w a non-negative integer); _ONE = x^0 is never evaluated
_ONE = ("pow", 0)
_COS_CYCLE = ((1.0, "cos"), (-1.0, "sin"), (-1.0, "cos"), (1.0, "sin"))  # d^k cos(x), k mod 4


def default_domain(name: str, params: dict | None = None, nu: int = 128, nv: int = 64) -> PatchDomain:
    params = params or {}
    two_pi = 2.0 * np.pi
    if name in ("sphere", "geodesic_sphere_S3"):
        return PatchDomain((0.0, two_pi), (0.0, np.pi), nu, nv, periodic_u=True, pole_offset=True)
    if name in ("torus", "clifford_torus_S3"):
        return PatchDomain((0.0, two_pi), (0.0, two_pi), nu, nv, periodic_u=True, periodic_v=True)
    if name == "catenoid":
        s_max = float(params.get("s_max", 1.2))
        return PatchDomain((0.0, two_pi), (-s_max, s_max), nu, nv, periodic_u=True)
    if name == "graph":
        return PatchDomain((-1.0, 1.0), (-1.0, 1.0), nu, nv)
    raise ConfigError(f"unknown catalog surface '{name}'")


def _chart_terms(name: str, params: dict, sf: SpaceForm) -> list:
    """The chart as separable terms (component, c, f(u), g(v))."""
    cos, sin = ("cos", 1.0), ("sin", 1.0)
    if name == "sphere":
        r = float(params.get("r", 1.0))
        if r <= 0:
            raise ConfigError("sphere radius must be positive")
        return [(0, r, cos, sin), (1, r, sin, sin), (2, r, _ONE, cos)]
    if name == "torus":
        R = float(params.get("R", 2.0))
        a = float(params.get("a", 1.0))
        if not R > a > 0:
            raise ConfigError("torus needs R > a > 0")
        # (R + a cos v) (cos u, sin u), a sin v
        return [(0, R, cos, _ONE), (0, a, cos, cos), (1, R, sin, _ONE), (1, a, sin, cos), (2, a, _ONE, sin)]
    if name == "catenoid":
        c = float(params.get("c", 1.0))
        if c <= 0:
            raise ConfigError("catenoid scale must be positive")
        ch = ("cosh", 1.0 / c)
        return [(0, c, cos, ch), (1, c, sin, ch), (2, 1.0, _ONE, ("pow", 1))]
    if name == "graph":
        coeffs = dict(params.get("coeffs", {(2, 0): 1.0, (0, 2): 1.0}))
        out = [(0, 1.0, ("pow", 1), _ONE), (1, 1.0, _ONE, ("pow", 1))]
        for (i, j), c in coeffs.items():
            if int(i) != i or int(j) != j or i < 0 or j < 0:
                raise ConfigError(f"graph exponents must be non-negative integers (got {(i, j)})")
            out.append((2, float(c), ("pow", int(i)), ("pow", int(j))))
        return out
    if name == "geodesic_sphere_S3":
        rho = sf.radius
        a = float(params.get("a", np.pi / 4))
        if not 0 < a < np.pi * rho:
            raise ConfigError("geodesic radius must lie in (0, pi*rho)")
        rs, rc = rho * math.sin(a / rho), rho * math.cos(a / rho)
        return [(0, rs, cos, sin), (1, rs, sin, sin), (2, rs, _ONE, cos), (3, rc, _ONE, _ONE)]
    if name == "clifford_torus_S3":
        f = sf.radius / math.sqrt(2.0)
        return [(0, f, cos, _ONE), (1, f, sin, _ONE), (2, f, _ONE, cos), (3, f, _ONE, sin)]
    raise ConfigError(f"unknown catalog surface '{name}'")


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


def _space_form_for(name: str, params: dict, sf: SpaceForm | None) -> SpaceForm:
    if name.endswith("_S3"):
        rho = float(params.get("rho", sf.radius if sf is not None and sf.model is Model.SPHERE else 1.0))
        want = SpaceForm.sphere(rho)
        if sf is not None and (sf.model is not Model.SPHERE or abs(sf.radius - rho) > 1e-12):
            raise ConfigError(f"{name} requires the spherical ambient of radius {rho}")
        return want
    if sf is not None and sf.model is not Model.EUCLIDEAN:
        raise ConfigError(f"catalog surface '{name}' lives in Euclidean space")
    return SpaceForm.euclidean()


class ChartBundle:
    """Closed-form jets, position map and unit normal map of one catalog
    chart."""

    def __init__(self, name: str, params: dict, sf: SpaceForm):
        self.dim = sf.ambient_dim
        terms = _chart_terms(name, params, sf)
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
        # the Euclidean normal needs no position; skipping it saves one
        # chart evaluation per stencil offset of an open-chart deformation
        normal_jets = ((1, 0), (0, 1)) if self.dim == 3 else ((0, 0), (1, 0), (0, 1))

        def normal_fn(U, V):
            r = self.evaluate(U, V, normal_jets)
            return _eps_normal(sf, None if self.dim == 3 else r[0], r[-2], r[-1])

        self.normal_fn = normal_fn

    def evaluate(self, U, V, indices) -> list:
        """The jets d^a_u d^b_v r for (a, b) in ``indices`` at the chart
        points (U, V), shape (..., dim). Each distinct factor is evaluated
        once per call, and factors equal to 1 not at all."""
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        shape = np.broadcast(U, V).shape
        values = {}

        def factor(f, X, axis):
            if (axis, f) not in values:
                values[axis, f] = _factor_values(f, X)
            return values[axis, f]

        out = []
        for ab in indices:
            comps = [None] * self.dim
            for comp, fu, fv, coef in self.plans[ab]:
                arrays = ([factor(fu, U, 0)] if fu else []) + ([factor(fv, V, 1)] if fv else [])
                if not arrays:
                    term = np.full(shape, coef)
                else:
                    term = arrays[0] if coef == 1.0 else coef * arrays[0]
                    for x in arrays[1:]:
                        term = term * x
                comps[comp] = term if comps[comp] is None else comps[comp] + term
            out.append(np.stack([np.zeros(shape) if x is None else np.broadcast_to(x, shape) for x in comps], axis=-1))
        return out

    def position_map(self, U, V) -> np.ndarray:
        return self.evaluate(U, V, ((0, 0),))[0]


def _check_params(name: str, params: dict) -> None:
    """Refuse keys the chart does not take and values that are not finite
    numbers, naming the key."""
    takes = _CHART_PARAMS[name]
    for key, val in params.items():
        if key not in takes:
            raise ConfigError(f"{name} takes no parameter '{key}' (takes: {', '.join(takes)})")
        if key == "coeffs":
            if not isinstance(val, dict):
                raise ConfigError(f"{name} parameter 'coeffs' must be a mapping {{(i, j): c}} (got {val!r})")
            values = val.values()
        else:
            values = (val,)
        for x in values:
            try:
                finite = math.isfinite(float(x))
            except (TypeError, ValueError):
                raise ConfigError(f"{name} parameter '{key}' must be a number (got {x!r})") from None
            if not finite:
                raise ConfigError(f"{name} parameter '{key}' must be finite (got {x!r})")


@lru_cache(maxsize=32)
def _bundle(name: str, params_key: tuple, k0: float) -> ChartBundle:
    params = dict(params_key)
    sf = SpaceForm.from_k0(k0)
    return ChartBundle(name, params, sf)


def sample_builtin(
    name: str,
    params: dict | None = None,
    domain: PatchDomain | None = None,
    sf: SpaceForm | None = None,
    flip: bool = False,
) -> SurfaceSample:
    """Exact-jet sample of a catalog surface."""
    if name not in CATALOG_NAMES:
        raise ConfigError(f"unknown catalog surface '{name}' (have: {', '.join(CATALOG_NAMES)})")
    params = dict(params or {})
    _check_params(name, params)
    sf = _space_form_for(name, params, sf)
    if domain is None:
        domain = default_domain(name, params)
    key = tuple(sorted((k, float(v) if not isinstance(v, dict) else tuple(sorted(v.items()))) for k, v in params.items()))
    bundle = _bundle(name, key, sf.k0)

    jets = dict(zip(MULTI_INDICES, bundle.evaluate(*domain.meshes(), MULTI_INDICES)))
    s = SurfaceSample(
        domain=domain,
        sf=sf,
        jets=jets,
        provenance=Provenance.ANALYTIC,
        position_map=bundle.position_map,
        raw_normal_map=bundle.normal_fn,
        name=name,
    )
    # pick the orientation with H > 0 where the surface is not minimal,
    # judged at the node where |H| is largest; the jets are cached in the
    # raw orientation, so setting the sign afterwards keeps them valid
    h_raw = curvature_jets(s)[0].value
    h_ref = h_raw.flat[np.argmax(np.abs(h_raw))]
    sign = -1.0 if h_ref < -1e-9 else 1.0
    s.orientation_sign = -sign if flip else sign
    return s
