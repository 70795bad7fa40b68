"""The numpy closed forms of the built-in paths against sympy references.

Sympy stays a reference here: the catalog charts, the built-in densities
and the spherical harmonics were once written as sympy expressions, and
those expressions, differentiated symbolically, are what the closed forms
must reproduce.
"""

import math

import numpy as np
import pytest
import sympy as sp

from curvevar import densities
from curvevar.calculus import AmbientPolyField, random_smooth_field
from curvevar.catalog import default_domain, sample_builtin
from curvevar.errors import ConfigError
from curvevar.pwillmore import harmonic_field
from curvevar.spaceform import SpaceForm
from curvevar.surface import MULTI_INDICES

U, V = sp.symbols("u v", real=True)


def _chart_expr(name: str, params: dict, sf: SpaceForm) -> sp.Matrix:
    """The catalog charts as sympy matrices (the former implementation)."""
    u, v = U, V
    if name == "sphere":
        r = float(params.get("r", 1.0))
        return sp.Matrix([r * sp.sin(v) * sp.cos(u), r * sp.sin(v) * sp.sin(u), r * sp.cos(v)])
    if name == "torus":
        R = float(params.get("R", 2.0))
        a = float(params.get("a", 1.0))
        w = R + a * sp.cos(v)
        return sp.Matrix([w * sp.cos(u), w * sp.sin(u), a * sp.sin(v)])
    if name == "catenoid":
        c = float(params.get("c", 1.0))
        return sp.Matrix([c * sp.cosh(v / c) * sp.cos(u), c * sp.cosh(v / c) * sp.sin(u), v])
    if name == "graph":
        coeffs = params.get("coeffs", {(2, 0): 1.0, (0, 2): 1.0})
        z = sum(float(c) * u**i * v**j for (i, j), c in coeffs.items())
        return sp.Matrix([u, v, z])
    if name == "geodesic_sphere_S3":
        rho = sf.radius
        a = float(params.get("a", np.pi / 4))
        s, c = sp.sin(sp.Float(a / rho)), sp.cos(sp.Float(a / rho))
        return rho * sp.Matrix([s * sp.sin(v) * sp.cos(u), s * sp.sin(v) * sp.sin(u), s * sp.cos(v), c])
    if name == "clifford_torus_S3":
        f = sf.radius / sp.sqrt(2)
        return sp.Matrix([f * sp.cos(u), f * sp.sin(u), f * sp.cos(v), f * sp.sin(v)])
    raise ValueError(name)


def _sympy_jet(r: sp.Matrix, ab, UU, VV) -> np.ndarray:
    comps = [sp.lambdify((U, V), e, modules="numpy")(UU, VV) for e in r.diff(U, ab[0], V, ab[1])]
    return np.stack([np.broadcast_to(np.asarray(c, dtype=float), UU.shape) for c in comps], axis=-1)


CHART_CASES = [
    ("sphere", {}),
    ("sphere", {"r": 1.7}),
    ("torus", {"R": 2.0, "a": 1.0}),
    ("torus", {"R": 3.0, "a": 0.4}),
    ("catenoid", {}),
    ("catenoid", {"c": 0.7}),
    ("graph", {}),
    ("graph", {"coeffs": {(3, 1): 0.5, (2, 0): 1.0, (0, 2): -0.3, (1, 0): 0.2}}),
    ("geodesic_sphere_S3", {"a": np.pi / 4}),
    ("geodesic_sphere_S3", {"a": 1.1, "rho": 1.5}),
    ("clifford_torus_S3", {}),
    ("clifford_torus_S3", {"rho": 2.0}),
]


@pytest.mark.parametrize("name,params", CHART_CASES, ids=lambda x: str(x))
def test_catalog_jets_match_sympy(name, params):
    s = sample_builtin(name, params, domain=default_domain(name, params, nu=32, nv=16))
    r = _chart_expr(name, params, s.sf)
    UU, VV = s.domain.meshes()
    assert len(MULTI_INDICES) == 15
    for ab in MULTI_INDICES:
        want = _sympy_jet(r, ab, UU, VV)
        scale = max(float(np.max(np.abs(want))), 1e-300)
        assert np.max(np.abs(s.jets[ab] - want)) <= 1e-14 * scale, ab
    # the position map off the grid
    Uo, Vo = UU + 0.013, VV - 0.007
    want = _sympy_jet(r, (0, 0), Uo, Vo)
    assert np.max(np.abs(s.position_map(Uo, Vo) - want)) <= 1e-14 * np.max(np.abs(want))


def test_catalog_rejects_bad_graph_exponents():
    with pytest.raises(ConfigError):
        sample_builtin("graph", {"coeffs": {(-1, 0): 1.0}})


@pytest.mark.parametrize(
    "name,params,key",
    [
        ("sphere", {"r": float("nan")}, "'r' must be finite"),
        ("sphere", {"r": float("inf")}, "'r' must be finite"),
        ("torus", {"R": 2.0, "a": -float("inf")}, "'a' must be finite"),
        ("catenoid", {"s_max": float("nan")}, "'s_max' must be finite"),
        ("graph", {"coeffs": {(2, 0): float("nan")}}, "'coeffs' must be finite"),
        ("graph", {"coeffs": 1.0}, "'coeffs' must be a mapping"),
        ("clifford_torus_S3", {"rho": float("inf")}, "'rho' must be finite"),
        ("sphere", {"q": 2.0}, "no parameter 'q'"),
        ("torus", {"r": 2.0}, "no parameter 'r'"),
        ("catenoid", {"a": 1.0}, "no parameter 'a'"),
        ("graph", {"c": 1.0}, "no parameter 'c'"),
        ("geodesic_sphere_S3", {"r": 1.0}, "no parameter 'r'"),
        ("clifford_torus_S3", {"a": 1.0}, "no parameter 'a'"),
    ],
)
def test_catalog_rejects_unknown_and_non_finite_parameters(name, params, key):
    with pytest.raises(ConfigError, match=key):
        sample_builtin(name, params, domain=default_domain(name, {}, 16, 16))


def _density_expr(name, params):
    """The built-in densities as sympy expressions (the former implementation)."""
    H, K = sp.symbols("H K", real=True)
    if name == "willmore":
        return H**2 + params["k0"]
    if name == "bending":
        return H**2 - K + params["k0"]
    if name == "helfrich":
        return params["kc"] * (2 * H + params["c0"]) ** 2 + params["kbar"] * K
    if name == "pwillmore":
        p = params["p"]
        return H ** int(p) if float(p).is_integer() else H ** sp.Float(p)
    if name == "ksquared":
        return K**2
    if name == "area":
        return sp.Integer(1)
    raise ValueError(name)


DENSITY_CASES = [
    ("willmore", {"k0": 0.0}),
    ("willmore", {"k0": 1.0}),
    ("bending", {"k0": -1.0}),
    ("helfrich", {"kc": 1.2, "c0": 0.3, "kbar": 0.5}),
    ("pwillmore", {"p": 1}),
    ("pwillmore", {"p": 2}),
    ("pwillmore", {"p": 3}),
    ("pwillmore", {"p": 4}),
    ("pwillmore", {"p": 2.5}),
    ("pwillmore", {"p": 1.3}),
    ("ksquared", {}),
    ("area", {}),
]


@pytest.mark.parametrize("name,params", DENSITY_CASES, ids=lambda x: str(x))
def test_builtin_densities_match_sympy(name, params):
    E = densities.builtin_density(name, **params)
    ref = densities.density_from_expr(_density_expr(name, params), name)
    rng = np.random.default_rng(1)
    H = rng.uniform(0.05, 2.5, (16, 8))  # H > 0 for the non-integer powers
    K = rng.uniform(-2.0, 2.0, (16, 8))
    if name != "pwillmore" or float(params["p"]).is_integer():
        H = H * rng.choice([-1.0, 1.0], H.shape)
    got = {key: getattr(E, key) for key in ("eval", "E_H", "E_K", "E_HH", "E_HK", "E_KK")}
    want = {key: getattr(ref, key) for key in got}
    got.update(E.third)
    want.update(ref.third)
    assert set(got) == set(want) and len(got) == 10
    for key in got:
        g, w = got[key](H, K), want[key](H, K)
        assert g.shape == H.shape
        scale = max(float(np.max(np.abs(w))), 1.0)
        assert np.max(np.abs(g - w)) <= 1e-14 * scale, key


def _harmonic_sympy(l: int, m: int):
    """Y_{l,m} as a sympy expression from the normalized associated-Legendre
    recurrence (the former implementation)."""
    am = abs(m)
    x, s = sp.cos(V), sp.sin(V)
    P = sp.Integer(-1) ** am * sp.factorial2(2 * am - 1) * s**am
    if l > am:
        P_prev, P = P, (2 * am + 1) * x * P
        for ll in range(am + 2, l + 1):
            P_prev, P = P, ((2 * ll - 1) * x * P - (ll + am - 1) * P_prev) / (ll - am)
    norm = sp.sqrt(sp.Rational(2 * l + 1, 4) / sp.pi * sp.factorial(l - am) / sp.factorial(l + am))
    if m == 0:
        az = sp.Integer(1)
    elif m > 0:
        az = sp.sqrt(2) * sp.cos(m * U)
    else:
        az = sp.sqrt(2) * sp.sin(am * U)
    return norm * P * az


@pytest.fixture(scope="module")
def small_sphere():
    return sample_builtin("sphere", {"r": 1.3}, domain=default_domain("sphere", nu=32, nv=16))


@pytest.mark.parametrize("l", range(9))
def test_harmonic_field_matches_sympy(l, small_sphere):
    s = small_sphere
    UU, VV = s.domain.meshes()
    # every order |m| once, cosine and sine azimuths alternating
    for m in (am if am % 2 == 0 else -am for am in range(l + 1)):
        expr = _harmonic_sympy(l, m) / sp.Float(1.3)
        y = harmonic_field(s, l, m)
        for a in range(3):
            for b in range(3 - a):
                want = np.broadcast_to(sp.lambdify((U, V), sp.diff(expr, U, a, V, b))(UU, VV), UU.shape)
                err = np.max(np.abs(y.partial(a, b) - want))
                assert err <= 1e-14 * np.max(np.abs(want)), (m, a, b)
        with pytest.raises(ConfigError):
            y.partial(3, 0)
        # one cached field per (l, m)
        assert harmonic_field(s, l, m) is y


def test_harmonic_field_degree_zero_and_bad_order(small_sphere):
    y = harmonic_field(small_sphere, 0, 0)
    c = 1.0 / (math.sqrt(4.0 * math.pi) * 1.3)
    assert y.values.shape == small_sphere.shape
    assert np.max(np.abs(y.values - c)) <= 1e-16
    for a, b in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        assert y.partial(a, b).shape == small_sphere.shape and not np.any(y.partial(a, b))
    for l, m in ((1, 2), (1, -2), (0, 1), (-1, 0)):
        with pytest.raises(ConfigError):
            harmonic_field(small_sphere, l, m)


def test_random_field_window_matches_sympy_window_expr():
    """The closed-form cos^10 window of ``random_smooth_field`` equals the
    same window given to ``AmbientPolyField`` as a sympy expression."""
    s = sample_builtin("catenoid", {}, domain=default_domain("catenoid", {}, 32, 16))
    f = random_smooth_field(s, 7, compact_v=True)
    a, b = s.domain.v_range
    window = sp.cos(sp.pi * (V - (a + b) / 2) / (b - a)) ** 10
    ref = AmbientPolyField(s, f.c0, f.cvec, f.mat, window_expr=window)
    for ab in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        want = ref.partial(*ab)
        assert np.max(np.abs(f.partial(*ab) - want)) <= 1e-14 * np.max(np.abs(want)), ab
