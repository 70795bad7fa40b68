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
from jet_reference import multilinear


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
    broken = dataclasses.replace(torus, jets=jets)
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
    s = dataclasses.replace(torus, jets=jets)
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


def test_taylor2_difference_is_the_sum_of_the_negation_bit_for_bit():
    """x - y, subtracted part by part, is x + (-y) to the bit, signed zeros
    included, for a jet and for a grid array or number on the right."""
    from curvevar.curvature import Taylor2

    rng = np.random.default_rng(12)

    def draw():
        return np.where(rng.random((6, 5)) < 0.3, 0.0, rng.standard_normal((6, 5)))

    x, y = Taylor2([draw() for _ in range(6)]), Taylor2([draw() for _ in range(6)])
    x.parts[0][0, 0], y.parts[0][0, 0] = 0.0, 0.0  # +0 - +0 and +0 + -0 are +0
    for other in (y, y.value, 0.0, -1.5):
        negated = -other
        got, want = x - other, x + negated
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.parts, want.parts))


def _leibniz_every_ordered_pair(fn, *args):
    """The Leibniz expansion of a multilinear fn with the product of two
    first-order partials evaluated once per ordered pair (i, j): 17 calls
    of fn for two arguments, 34 for three."""
    from curvevar.curvature import Taylor2

    n = len(args)

    def term(picks):
        return fn(*(x.parts[picks.get(i, 0)] for i, x in enumerate(args)))

    out = [term({})] + [sum(term({i: d}) for i in range(n)) for d in (1, 2)]
    for slot, d1, d2 in ((3, 1, 1), (4, 1, 2), (5, 2, 2)):
        pairs = sum(term({i: d1, j: d2}) for i in range(n) for j in range(n) if i != j)
        out.append(sum(term({i: slot}) for i in range(n)) + pairs)
    return Taylor2(out)


def _counted(fn, calls):
    def wrapper(*xs):
        calls.append(1)
        return fn(*xs)

    return wrapper


def test_multilinear_evaluates_each_pair_product_once(torus, clifford):
    """The products of two first-order partials in d_uu and d_vv are
    evaluated once per unordered pair: 15 calls of fn for a bilinear map
    (17 with every ordered pair), 28 for the trilinear 4-d normal (34).
    The bilinear jet is the ordered-pair expansion bit for bit; the
    trilinear one, whose map is not symmetric, equals it to round-off."""
    from functools import partial

    from curvevar.curvature import Taylor2, _raw_normal

    ru, rv = (Taylor2.from_jets(torus.jets, e) for e in ((1, 0), (0, 1)))
    calls = []
    got = multilinear(_counted(torus.sf.flat_inner, calls), ru, rv)
    assert len(calls) == 15
    for x, y in zip(got.parts, _leibniz_every_ordered_pair(torus.sf.flat_inner, ru, rv).parts):
        assert np.array_equal(x, y)

    fn = partial(_raw_normal, clifford.sf)
    p, ru, rv = (Taylor2.from_jets(clifford.jets, e) for e in ((0, 0), (1, 0), (0, 1)))
    calls = []
    got = multilinear(_counted(fn, calls), p, ru, rv)
    assert len(calls) == 28
    for x, y in zip(got.parts, _leibniz_every_ordered_pair(fn, p, ru, rv).parts):
        assert np.max(np.abs(x - y)) <= 1e-14 * max(np.max(np.abs(y)), 1.0)


def test_christoffel_symbols_are_built_when_first_read(torus):
    """Measuring a functional on a deformed sample builds g, h and N but no
    Christoffel symbols; a Hessian there builds the first-kind symbols,
    which the forms keep, and nothing else: no metric derivatives and no
    second-kind symbols."""
    from curvevar import builtin_density, deform_normal, functional_value, hessian, random_smooth_field

    u = random_smooth_field(torus, 4)
    d = deform_normal(torus, u, 0.01)
    functional_value(d, builtin_density("willmore"))
    ff = fundamental_forms(d)
    before = set(vars(ff))
    assert "christoffel" not in before
    hessian(u, d)
    assert set(vars(ff)) - before == {"christoffel"}
    assert fundamental_forms(d).christoffel is ff.christoffel
    assert not hasattr(ff, "dg") and not hasattr(ff, "gamma")


def test_nearly_degenerate_metric_is_refused():
    """fundamental_forms holds the one degeneracy guard, det g <= 1e-12
    max|g|^2: a hand-built sample of the plane map (u + v, 1e-7 v, 0) has
    det g = 1e-14 > 0 at every node and is refused, naming the first node
    and the sample."""
    from curvevar import DegenerateMetricError, PatchDomain, SpaceForm
    from curvevar.surface import SurfaceSample

    domain = PatchDomain((0, 1), (0, 1), 8, 8)
    U, V = domain.meshes()
    zero = np.zeros(U.shape + (3,))
    jets = {
        (0, 0): np.stack([U + V, 1e-7 * V, 0 * U], axis=-1),
        (1, 0): zero + [1.0, 0.0, 0.0],
        (0, 1): zero + [1.0, 1e-7, 0.0],
        **{ab: zero for ab in ((2, 0), (1, 1), (0, 2))},
    }
    s = SurfaceSample(domain, SpaceForm.euclidean(), jets, name="sliver")
    with pytest.raises(DegenerateMetricError, match=r"degenerate metric at node \(0, 0\) in sliver") as err:
        fundamental_forms(s)
    assert err.value.node == (0, 0)
