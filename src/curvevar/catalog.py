"""Built-in surface catalog with exact jets.

Each chart is written down symbolically once; its jets to order 4 are
generated by symbolic differentiation and lambdified. The unit normal, and
the curvature scalars H, K with their chart partials, are computed from
those jets numerically (``curvature.curvature_jets``). Catalog closed
surfaces are oriented so that H > 0 where that is meaningful (sphere:
H = +1/r, i.e. inward normal).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import sympy as sp

from .curvature import curvature_jets
from .errors import ConfigError
from .spaceform import Model, SpaceForm
from .surface import MULTI_INDICES, PatchDomain, Provenance, SurfaceSample, _eps_normal

_U, _V = sp.symbols("u v", real=True)

CATALOG_NAMES = ("sphere", "torus", "catenoid", "graph", "geodesic_sphere_S3", "clifford_torus_S3")


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


def _chart_expr(name: str, params: dict, sf: SpaceForm) -> sp.Matrix:
    u, v = _U, _V
    if name == "sphere":
        r = float(params.get("r", 1.0))
        if r <= 0:
            raise ConfigError("sphere radius must be positive")
        return sp.Matrix([r * sp.sin(v) * sp.cos(u), r * sp.sin(v) * sp.sin(u), r * sp.cos(v)])
    if name == "torus":
        R = float(params.get("R", 2.0))
        a = float(params.get("a", 1.0))
        if not R > a > 0:
            raise ConfigError("torus needs R > a > 0")
        w = R + a * sp.cos(v)
        return sp.Matrix([w * sp.cos(u), w * sp.sin(u), a * sp.sin(v)])
    if name == "catenoid":
        c = float(params.get("c", 1.0))
        if c <= 0:
            raise ConfigError("catenoid scale must be positive")
        return sp.Matrix([c * sp.cosh(v / c) * sp.cos(u), c * sp.cosh(v / c) * sp.sin(u), v])
    if name == "graph":
        coeffs = params.get("coeffs", {(2, 0): 1.0, (0, 2): 1.0})
        z = sum(float(c) * u**i * v**j for (i, j), c in coeffs.items())
        return sp.Matrix([u, v, z])
    if name == "geodesic_sphere_S3":
        rho = sf.radius
        a = float(params.get("a", np.pi / 4))
        if not 0 < a < np.pi * rho:
            raise ConfigError("geodesic radius must lie in (0, pi*rho)")
        s, c = sp.sin(sp.Float(a / rho)), sp.cos(sp.Float(a / rho))
        return rho * sp.Matrix([s * sp.sin(v) * sp.cos(u), s * sp.sin(v) * sp.sin(u), s * sp.cos(v), c])
    if name == "clifford_torus_S3":
        rho = sf.radius
        f = rho / sp.sqrt(2)
        return sp.Matrix([f * sp.cos(u), f * sp.sin(u), f * sp.cos(v), f * sp.sin(v)])
    raise ConfigError(f"unknown catalog surface '{name}'")


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


def _lambdify_vec(exprs) -> object:
    fns = [sp.lambdify((_U, _V), e, modules="numpy") for e in exprs]

    def f(U, V):
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        comps = [np.broadcast_to(np.asarray(fn(U, V), dtype=float), U.shape) for fn in fns]
        return np.stack(comps, axis=-1)

    return f


class ChartBundle:
    """Lambdified jets and the unit normal map of one catalog chart."""

    def __init__(self, name: str, params: dict, sf: SpaceForm):
        r = _chart_expr(name, params, sf)
        self.jet_fns = {}
        for a, b in MULTI_INDICES:
            d = r.diff(_U, a, _V, b)
            self.jet_fns[(a, b)] = _lambdify_vec(list(d))
        pos, ru, rv = (self.jet_fns[e] for e in ((0, 0), (1, 0), (0, 1)))
        # the Euclidean normal needs no position; skipping it saves one
        # chart evaluation per stencil offset in deform_normal_many
        euclidean = sf.ambient_dim == 3
        self.normal_fn = lambda U, V: _eps_normal(sf, None if euclidean else pos(U, V), ru(U, V), rv(U, V))


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
    sf = _space_form_for(name, params, sf)
    if domain is None:
        domain = default_domain(name, params)
    key = tuple(sorted((k, float(v) if not isinstance(v, dict) else tuple(sorted(v.items()))) for k, v in params.items()))
    bundle = _bundle(name, key, sf.k0)

    UU, VV = domain.meshes()
    jets = {ab: fn(UU, VV) for ab, fn in bundle.jet_fns.items()}
    s = SurfaceSample(
        domain=domain,
        sf=sf,
        jets=jets,
        provenance=Provenance.ANALYTIC,
        position_map=bundle.jet_fns[(0, 0)],
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
