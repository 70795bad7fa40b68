import dataclasses

import numpy as np
import pytest
import sympy as sp

from curvevar import (
    GuardViolation,
    codazzi_residual,
    curvature_scalars,
    fundamental_forms,
    intrinsic_gauss_curvature,
    sample_builtin,
)
from curvevar.surface import check_immersion


def test_sphere_curvatures(sphere2):
    cs = curvature_scalars(sphere2)
    assert np.max(np.abs(cs.H - 0.5)) < 1e-12
    assert np.max(np.abs(cs.K - 0.25)) < 1e-12
    assert np.max(np.abs(cs.K_E - 0.25)) < 1e-12


def test_torus_curvatures(torus):
    R, a = 2.0, 1.0
    _, VV = torus.domain.meshes()
    cs = curvature_scalars(torus)
    H_exact = (R + 2 * a * np.cos(VV)) / (2 * a * (R + a * np.cos(VV)))
    K_exact = np.cos(VV) / (a * (R + a * np.cos(VV)))
    assert np.max(np.abs(cs.H - H_exact)) < 1e-11
    assert np.max(np.abs(cs.K - K_exact)) < 1e-11


def test_catenoid_is_minimal():
    s = sample_builtin("catenoid", {})
    cs = curvature_scalars(s)
    _, VV = s.domain.meshes()
    assert np.max(np.abs(cs.H)) < 1e-12
    assert np.max(np.abs(cs.K + 1.0 / np.cosh(VV) ** 4)) < 1e-11


def test_clifford_torus_curvatures(clifford):
    """Minimal and intrinsically flat in S^3; extrinsic K_E = -1."""
    cs = curvature_scalars(clifford)
    assert np.max(np.abs(cs.H)) < 1e-12
    assert np.max(np.abs(cs.K_E + 1.0)) < 1e-11
    assert np.max(np.abs(cs.K)) < 1e-11


def test_geodesic_sphere_curvatures(geo_sphere):
    a = np.pi / 4
    cs = curvature_scalars(geo_sphere)
    assert np.max(np.abs(cs.H - 1.0 / np.tan(a))) < 1e-11
    assert np.max(np.abs(cs.K - 1.0 / np.sin(a) ** 2)) < 1e-11
    assert np.max(np.abs(cs.K_E - 1.0 / np.tan(a) ** 2)) < 1e-11


def test_orientation_flip(torus):
    """H is odd under a normal flip, K and K_E are even."""
    cs = curvature_scalars(torus)
    csf = curvature_scalars(torus.flipped())
    assert np.max(np.abs(cs.H + csf.H)) < 1e-12
    assert np.max(np.abs(cs.K - csf.K)) < 1e-12
    assert np.max(np.abs(cs.K_E - csf.K_E)) < 1e-12


def test_gauss_bonnet():
    for name, params, expected in (
        ("sphere", {"r": 1.3}, 4 * np.pi),
        ("torus", {"R": 2.0, "a": 0.7}, 0.0),
        ("geodesic_sphere_S3", {"a": np.pi / 3}, 4 * np.pi),
        ("clifford_torus_S3", {}, 0.0),
    ):
        from curvevar import integrate

        s = sample_builtin(name, params)
        cs = curvature_scalars(s)
        assert abs(integrate(cs.K, s) - expected) < 1e-8, name


@pytest.mark.parametrize(
    "name,params,tol",
    [
        ("sphere", {"r": 1.0}, 1e-10),
        ("torus", {"R": 2.0, "a": 1.0}, 1e-10),
        ("geodesic_sphere_S3", {"a": np.pi / 4}, 1e-10),
        ("clifford_torus_S3", {}, 1e-10),
        ("catenoid", {}, 1e-7),
        ("graph", {}, 1e-6),
    ],
)
def test_codazzi(name, params, tol):
    s = sample_builtin(name, params)
    assert np.max(np.abs(codazzi_residual(s))) < tol


def test_codazzi_negative_control(torus):
    """The residual detects an inconsistent second fundamental form: perturbing
    a second-order jet entry (which feeds h) trips it by an O(perturbation)
    amount, confirming the check is not an algebraic tautology."""
    jets = dict(torus.jets)
    bad = jets[(0, 2)].copy()
    bad[..., 0] += 0.05
    jets[(0, 2)] = bad
    broken = dataclasses.replace(torus, jets=jets, _cache={})
    assert np.max(np.abs(codazzi_residual(broken))) > 1e-3


def test_non_finite_curvature_from_finite_jets_is_refused(torus):
    """Finite jets can give curvature that is not finite: with the (2, 0)
    and (0, 2) jets of the torus scaled by 1e200, K_E and |h|^2 overflow at
    every node. check_immersion accepts the jets; curvature_scalars refuses
    the scalars with GuardViolation naming the scalar and the node, rather
    than returning inf."""
    jets = dict(torus.jets)
    for ab in ((2, 0), (0, 2)):
        jets[ab] = 1e200 * jets[ab]
    s = dataclasses.replace(torus, jets=jets, _cache={})
    check_immersion(s)
    with pytest.raises(GuardViolation, match=r"K_E = inf is not finite at node \(0, 0\)") as err:
        curvature_scalars(s)
    assert err.value.node == (0, 0)


def test_theorema_egregium(torus, geo_sphere):
    """Intrinsic Gauss curvature from the metric alone matches det of the
    shape operator plus the ambient curvature."""
    for s in (torus, geo_sphere):
        cs = curvature_scalars(s)
        K_int = intrinsic_gauss_curvature(s)
        assert np.max(np.abs(K_int - cs.K)) < 1e-9


def test_fundamental_forms_shapes(torus):
    ff = fundamental_forms(torus)
    assert ff.g.shape == torus.shape + (2, 2)
    assert ff.h.shape == torus.shape + (2, 2)
    # metric symmetry and positivity
    assert np.max(np.abs(ff.g[..., 0, 1] - ff.g[..., 1, 0])) < 1e-14
    assert np.all(np.linalg.det(ff.g) > 0)
    # H and K reproduce from g and h
    cs = curvature_scalars(torus)
    g_inv = np.linalg.inv(ff.g)
    H = 0.5 * np.einsum("...ij,...ji->...", g_inv, ff.h)
    assert np.max(np.abs(H - cs.H)) < 1e-11
    assert np.max(np.abs(np.linalg.det(ff.h) / np.linalg.det(ff.g) - cs.K_E)) < 1e-11


def test_taylor2_arithmetic():
    """Product, reciprocal, square root and G(H, K) composition reproduce
    the closed-form chart partials of known functions."""
    from curvevar.errors import ConfigError
    from curvevar.curvature import TAYLOR_INDICES, Taylor2

    u, v = sp.symbols("u v")
    UU, VV = np.meshgrid(np.linspace(-1.0, 1.0, 9), np.linspace(-0.5, 1.5, 7), indexing="ij")

    def jet(expr):
        return Taylor2.from_partials(lambda a, b: sp.lambdify((u, v), sp.diff(expr, u, a, v, b))(UU, VV) + 0.0 * UU)

    def check(got, expr):
        for a, b in TAYLOR_INDICES:
            want = sp.lambdify((u, v), sp.diff(expr, u, a, v, b))(UU, VV)
            assert np.max(np.abs(got.partial(a, b) - want)) <= 1e-12 * (1.0 + np.max(np.abs(want))), (expr, a, b)

    f = 2 + sp.sin(u) * sp.cos(2 * v)
    g = sp.exp(u * v) + u**2
    check(jet(f) * jet(g), f * g)
    check(jet(f).reciprocal(), 1 / f)
    check(jet(f).sqrt(), sp.sqrt(f))
    check(3.0 + jet(g) - 2.0 * jet(f), 3 + g - 2 * f)

    H, K = sp.symbols("H K")
    G = H**2 * K + sp.sin(H) / K
    parts = [sp.lambdify((H, K), e) for e in (G, G.diff(H), G.diff(K), G.diff(H, 2), G.diff(H, K), G.diff(K, 2))]
    fv, gv = jet(f).value, jet(g).value
    check(Taylor2.compose2(jet(f), jet(g), *(p(fv, gv) for p in parts)), G.subs({H: f, K: g}))
    with pytest.raises(ConfigError):
        jet(f).partial(2, 1)
