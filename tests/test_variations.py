import dataclasses
import re

import numpy as np
import pytest
import sympy as sp

from curvevar import (
    AmbientPolyField,
    GuardViolation,
    NotCriticalError,
    SpaceForm,
    curvature_scalars,
    el_residual,
    evolution_check,
    evolution_check_many,
    fd_variation_oracle,
    fd_variation_oracle_many,
    first_variation,
    functional_value,
    default_domain,
    harmonic_field,
    integrate,
    random_smooth_field,
    sample_builtin,
    sample_callable,
    second_variation,
    volume_functional,
)
from curvevar.acceptance import _torus_image, _torus_image_map
from curvevar.calculus import ScalarField, curvature_field
from curvevar.densities import area_density, bending, density_from_expr, helfrich, ksquared, pwillmore, willmore
from curvevar.surface import deform_normal_many
from curvevar.variations import _EVOLUTION_QUANTITIES, _evolution_formulas

import variation_reference as reference
from test_surface import _h3_sphere


def test_functional_values(sphere, torus, clifford):
    assert functional_value(sphere, willmore()) == pytest.approx(4 * np.pi, abs=1e-9)
    assert functional_value(clifford, willmore(1.0)) == pytest.approx(2 * np.pi**2, abs=1e-9)
    # Willmore energy of the (R, a) torus: pi^2 R^2 / (a sqrt(R^2 - a^2))
    R, a = 2.0, 1.0
    expected = np.pi**2 * R**2 / (a * np.sqrt(R**2 - a**2))
    assert functional_value(torus, willmore()) == pytest.approx(expected, abs=1e-8)


def test_area_first_variation_is_mean_curvature(torus):
    """d(Area) = integral of -2 H u dS, recovered by the general formula
    with the constant density E = 1."""
    from curvevar.curvature import curvature_scalars

    u = random_smooth_field(torus, 1)
    got = first_variation(torus, area_density(), u)
    H = curvature_scalars(torus).H
    assert got == pytest.approx(integrate(-2.0 * H * u.values, torus), abs=1e-10)


def test_first_variation_linearity(torus):
    E = bending()
    u1 = random_smooth_field(torus, 2)
    u2 = random_smooth_field(torus, 3)
    lhs = first_variation(torus, E, u1 + 2.0 * u2)
    rhs = first_variation(torus, E, u1) + 2.0 * first_variation(torus, E, u2)
    assert abs(lhs - rhs) < 1e-10


def test_willmore_sphere_is_critical(sphere):
    u = random_smooth_field(sphere, 4)
    assert abs(first_variation(sphere, willmore(), u)) < 1e-10
    assert np.max(np.abs(el_residual(sphere, willmore()).values)) < 1e-9


@pytest.mark.parametrize("density", [willmore(), bending(), pwillmore(3), ksquared()], ids=lambda E: E.name)
def test_first_variation_oracle(torus, density):
    u = random_smooth_field(torus, 5)
    rep = fd_variation_oracle(torus, density, u, order=1)
    assert rep.rel_error < 1e-5
    assert rep.convergence_order > 1.8


def test_first_variation_oracle_in_S3(geo_sphere):
    u = random_smooth_field(geo_sphere, 6)
    rep = fd_variation_oracle(geo_sphere, bending(1.0), u, order=1)
    assert rep.rel_error < 1e-5


def test_el_residual_pairs_with_first_variation(torus):
    """The first variation equals the integral of the pointwise residual
    against u (the residual is the L^2 gradient), in E^3 and on the S^3 and
    H^3 images of a torus, whose H and K vary; there |F' - pairing| /
    max(|F'|, 1) measured <= 1.53e-15 over these densities and seeds."""
    for E in (willmore(), ksquared()):
        u = random_smooth_field(torus, 7)
        res = el_residual(torus, E)
        assert first_variation(torus, E, u) == pytest.approx(
            integrate(res.values * u.values, torus), abs=1e-7
        )
    for sf in (SpaceForm.sphere(1.0), SpaceForm.hyperbolic(1.0)):
        s = _torus_image(sf)
        for E in (willmore(sf.k0), bending(sf.k0), ksquared()):
            res = el_residual(s, E)
            for seed in (7, 8):
                u = random_smooth_field(s, seed)
                fv = first_variation(s, E, u)
                assert abs(fv - integrate(res.values * u.values, s)) <= 1.5e-14 * max(abs(fv), 1.0), (sf, E.name, seed)


def _warp(U, V):
    """A diffeomorphism of the doubly periodic chart that makes it far from
    orthogonal: max|g_uv| / max|g| is 0.29 on the torus and 0.40 on the
    Clifford torus."""
    return U + 0.4 * np.sin(V) + 0.2 * np.cos(2.0 * U), V + 0.3 * np.sin(U)


def _round_torus(U, V):
    r = 2.0 + np.cos(V)
    return np.stack([r * np.cos(U), r * np.sin(U), np.sin(V)], axis=-1)


def _clifford_torus(U, V):
    return np.stack([np.cos(U), np.sin(U), np.cos(V), np.sin(V)], axis=-1) / np.sqrt(2.0)


@pytest.mark.parametrize(
    "position,sf,densities,bound",
    [
        (_round_torus, SpaceForm.euclidean(), (willmore(), helfrich(1.0, 0.3, 0.5), pwillmore(3)), 6.9e-15),
        (_clifford_torus, SpaceForm.sphere(1.0), (willmore(1.0), bending(1.0), pwillmore(3)), 1.8e-13),
    ],
    ids=["torus", "clifford_torus_S3"],
)
def test_integrals_do_not_depend_on_the_chart(position, sf, densities, bound):
    """F, F', the forced F'' and the pairing of the EL residual with u are
    numbers of the surface: sampled plainly and through a warp of the
    chart that fills in g_uv, h_uv and Gamma, with the same ambient
    polynomial field, they agree to 6.9e-16 (torus) and 1.8e-14 (Clifford
    torus, the forced F'' of pwillmore(3), whose value is itself
    round-off) of max(|value|, 1) at most (measured)."""
    domain = default_domain("torus", None, 128, 64)
    U, V = domain.meshes()
    # det [[1 - 0.4 sin 2u, 0.4 cos v], [0.3 cos u, 1]], the warp's Jacobian
    jacobian = (1.0 - 0.4 * np.sin(2.0 * U)) - 0.4 * np.cos(V) * 0.3 * np.cos(U)
    assert np.min(jacobian) > 0.0
    values = []
    for f in (position, lambda U, V: position(*_warp(U, V))):
        s = sample_callable(f, domain, sf=sf)
        rng = np.random.default_rng(3)
        n = s.ambient_dim
        u = AmbientPolyField(s, 0.5, rng.standard_normal(n), rng.standard_normal((n, n)))
        pairing = [integrate(el_residual(s, E).values * u.values, s) for E in densities]
        values.append(
            [
                (functional_value(s, E), first_variation(s, E, u), second_variation(s, E, u, force=True), pair)
                for E, pair in zip(densities, pairing)
            ]
        )
    plain, warped = np.array(values)
    assert np.all(np.abs(warped - plain) <= bound * np.maximum(np.abs(plain), 1.0)), np.abs(warped - plain)


@pytest.mark.parametrize(
    "position,sf",
    [
        (_round_torus, SpaceForm.euclidean()),
        (_clifford_torus, SpaceForm.sphere(1.0)),
        (_torus_image_map(SpaceForm.sphere(1.0)), SpaceForm.sphere(1.0)),
        (_torus_image_map(SpaceForm.hyperbolic(1.0)), SpaceForm.hyperbolic(1.0)),
    ],
    ids=["torus", "clifford_torus_S3", "torus_image_S3", "torus_image_H3"],
)
def test_oracles_pass_on_a_warped_chart(position, sf):
    """Order-1 oracles and the seven evolution checks pass at criteria 3
    and 5's bounds on a warped chart, whose g_uv share is 0.27-0.40, in
    each space form, as on the plain one. Measured on the warped chart:
    order-1 rel_error 4.01e-8 on the Clifford torus (willmore(1) is
    critical there, so F' ~ 0) and <= 9.41e-10 elsewhere; evolution
    3.34e-8 (Clifford) and <= 1.28e-8 elsewhere; every order >= 1.9999.
    F' is a number of the surface: the two charts agree to 5.06e-5 of
    max(|F'|, 1) at most (the H^3 image, where the field's scale is set
    by the sup of |x| over other nodes)."""
    from curvevar.variations import oracle_passes

    domain = default_domain("torus", None, 128, 64)
    densities = (willmore(sf.k0), bending(sf.k0), helfrich(1.0, 0.3, 0.5))
    values = []
    for f in (position, lambda U, V: position(*_warp(U, V))):
        s = sample_callable(f, domain, sf=sf)
        for seed in (3, 4):
            u = random_smooth_field(s, seed)
            reports = fd_variation_oracle_many(s, densities, u, order=1)
            for rep in reports:
                assert oracle_passes("first_variation", rep.rel_error, rep.convergence_order), (seed, rep)
            for q, rep in evolution_check_many(s, u, f=random_smooth_field(s, seed + 100)).items():
                assert oracle_passes("evolution", rep.rel_error, rep.convergence_order), (seed, q, rep)
            values.append([rep.formula_value for rep in reports])
    plain, warped = np.split(np.array(values), 2)
    assert np.all(np.abs(warped - plain) <= 5.1e-4 * np.maximum(np.abs(plain), 1.0)), np.abs(warped - plain)


def test_minimal_surface_el_residual():
    """For E = H the residual on a minimal surface reduces to -K."""
    s = sample_builtin("catenoid", {})
    from curvevar.curvature import curvature_scalars

    res = el_residual(s, pwillmore(1))
    K = curvature_scalars(s).K
    assert np.max(np.abs(res.values + K)) < 1e-9


def test_second_variation_quadratic_scaling(sphere):
    u = random_smooth_field(sphere, 8)
    v1 = second_variation(sphere, willmore(), u)
    v2 = second_variation(sphere, willmore(), 2.0 * u)
    assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


def test_second_variation_oracle_critical(sphere):
    u = random_smooth_field(sphere, 9)
    rep = fd_variation_oracle(sphere, willmore(), u, order=2)
    # the convergence order is not asserted here: at these step sizes the
    # h-independent resampling error divided by h^2 can dominate the h^2
    # truncation term, which spoils the order estimate but not the value
    assert rep.rel_error < 1e-4


def test_second_variation_oracle_constrained(sphere):
    """H^3 sphere is critical only under a volume constraint; the oracle
    differencess the multiplier-augmented functional."""
    u = random_smooth_field(sphere, 10)
    u = u - ScalarField.constant(integrate(u.values, sphere) / (4 * np.pi), sphere)
    rep = fd_variation_oracle(sphere, pwillmore(3), u, order=2)
    assert rep.rel_error < 1e-4


def test_second_variation_requires_criticality(torus):
    u = random_smooth_field(torus, 11)
    with pytest.raises(NotCriticalError):
        second_variation(torus, willmore(), u)
    # force=True evaluates the expression anyway
    val = second_variation(torus, willmore(), u, force=True)
    assert np.isfinite(val)


def test_constrained_criticality_requires_mean_zero(sphere):
    u = ScalarField.constant(1.0, sphere)
    with pytest.raises(NotCriticalError):
        second_variation(sphere, pwillmore(3), u)


@pytest.mark.parametrize("quantity", ["g", "g_inv", "dS", "2H", "K"])
def test_evolution_equations(torus, quantity):
    u = random_smooth_field(torus, 12)
    rep = evolution_check(torus, u, quantity=quantity)
    assert rep.rel_error < 1e-5, quantity
    assert rep.convergence_order > 1.8


def test_evolution_equations_with_aux_field(geo_sphere):
    u = random_smooth_field(geo_sphere, 13)
    f = random_smooth_field(geo_sphere, 14)
    out = evolution_check_many(geo_sphere, u, f=f, quantities=("laplacian_f", "h_hess_f"))
    for q, rep in out.items():
        assert rep.rel_error < 1e-5, q


@pytest.mark.parametrize("name", ["catenoid", "clifford_torus_S3"])
def test_evolution_checks_pass_on_minimal_surfaces(name):
    """On a minimal surface dS' = -2Hu dS is zero to round-off. The
    report's unit floor makes rel_error the oracle's absolute gap, 2.2e-8
    on the catenoid and 6.5e-10 on the Clifford torus (measured); dividing
    by the two vanishing sups read 1.0 and 0.9985. All seven quantities
    pass at criterion 5's bounds, and every row reports its sup error
    over max(sup|formula|, sup|oracle|, 1)."""
    from curvevar.variations import oracle_passes

    s = sample_builtin(name, {})
    u, f = (random_smooth_field(s, seed, compact_v=not s.domain.closed) for seed in (101, 202))
    reports = evolution_check_many(s, u, f=f)
    assert list(reports) == list(_EVOLUTION_QUANTITIES)
    assert reports["dS"].formula_value < 1e-14
    for q, rep in reports.items():
        assert rep.rel_error == rep.abs_error / max(rep.formula_value, rep.oracle_value, 1.0), q
        assert oracle_passes("evolution", rep.rel_error, rep.convergence_order), (q, rep)


def test_evolution_check_refuses_bad_quantities(torus):
    """An unknown quantity and an f-quantity without f are refused before
    any deformed sample is built."""
    from curvevar.errors import ConfigError

    u = random_smooth_field(torus, 1)
    with pytest.raises(ConfigError, match=r"unknown evolution quantity 'H' \(have: g, g_inv"):
        evolution_check_many(torus, u, quantities=("2H", "H"))
    with pytest.raises(ConfigError, match="quantity 'h_hess_f' needs the auxiliary field f"):
        evolution_check(torus, u, quantity="h_hess_f")


def test_volume_functional(sphere, sphere2):
    assert abs(volume_functional(sphere)) == pytest.approx(4 * np.pi / 3, abs=1e-9)
    assert abs(volume_functional(sphere2)) == pytest.approx(32 * np.pi / 3, abs=1e-8)


def test_volume_functional_is_euclidean_only(geo_sphere):
    from curvevar.errors import ConfigError

    with pytest.raises(ConfigError, match="^the flux volume functional is defined in the Euclidean model$"):
        volume_functional(geo_sphere)


def test_volume_variation_oracle(sphere):
    """d(Vol) along the normal flow equals the integral of u dS up to sign
    conventions; check |dV/dt| against the flux formula by differencing."""
    u = random_smooth_field(sphere, 15)
    from curvevar.surface import deform_normal

    t = 1e-4
    dv = (volume_functional(deform_normal(sphere, u, t)) - volume_functional(deform_normal(sphere, u, -t))) / (2 * t)
    assert abs(abs(dv) - abs(integrate(u.values, sphere))) < 1e-6



def test_compact_random_field_vanishes_on_every_open_edge():
    """On the graph, open in u and v, ``compact_v`` windows both directions:
    the field is below 1e-160 on all four edges, and the closed-form volume
    variations, which leave edge terms out, match centred differences of
    the volume (V' to 8.4e-14, V'' to 1.8e-10 relative, measured). Windowed
    in v only, the field read 0.83 on its u edges and V', V'' were off by
    59-151 %."""
    from curvevar import volume_variations
    from curvevar.variations import _differences

    s = sample_builtin("graph", {})
    for seed in (1, 2):
        u = random_smooth_field(s, seed, compact_v=True)
        edges = (u.values[0], u.values[-1], u.values[:, 0], u.values[:, -1])
        assert max(np.max(np.abs(e)) for e in edges) <= 1e-12 * np.max(np.abs(u.values)), seed
        for order, formula in zip((1, 2), volume_variations(s, u)):
            (want,) = _differences(s, u, order, lambda st: [volume_functional(st)])[3]
            assert abs(formula - want) <= 1e-8 * abs(want), (seed, order, formula, want)

def test_geodesic_sphere_bending_critical(geo_sphere):
    """Geodesic spheres in S^3 are constrained-critical for H^2: the
    residual is a nonzero constant."""
    res = el_residual(geo_sphere, willmore(1.0)).values
    assert np.max(res) - np.min(res) < 1e-8


def test_oracle_rejects_bad_order(torus):
    from curvevar.errors import ConfigError

    u = random_smooth_field(torus, 16)
    with pytest.raises(ConfigError):
        fd_variation_oracle(torus, willmore(), u, order=3)


def test_oracle_many_equals_one_run_per_density(torus, sphere):
    """Several densities differenced over one set of deformed samples
    report exactly what one oracle run per density reports; at order 2
    each density keeps its own multiplier (zero for Willmore, nonzero for
    H^3 on the sphere)."""
    u = random_smooth_field(torus, 17)
    Es = [willmore(), bending(), pwillmore(3)]
    assert fd_variation_oracle_many(torus, Es, u, order=1) == [fd_variation_oracle(torus, E, u, order=1) for E in Es]
    y20 = harmonic_field(sphere, 2, 0)
    Es = [willmore(), pwillmore(3)]
    assert fd_variation_oracle_many(sphere, Es, y20, order=2) == [fd_variation_oracle(sphere, E, y20, order=2) for E in Es]


def test_oracle_reports_the_richardson_value_of_its_two_differences(torus):
    """The oracle value is (4 d2 - d1) / 3 of the centred differences at h1
    and h2 = h1 / 2; the observed order compares both with the formula."""
    u = random_smooth_field(torus, 19)
    E = bending()
    rep = fd_variation_oracle(torus, E, u, order=1)
    h1 = rep.fd_step
    h2 = 0.5 * h1
    F = {t: functional_value(st, E) for t, st in deform_normal_many(torus, u, (h1, -h1, h2, -h2)).items()}
    d1 = (F[h1] - F[-h1]) / (2.0 * h1)
    d2 = (F[h2] - F[-h2]) / (2.0 * h2)
    formula = first_variation(torus, E, u)
    assert rep.oracle_value == (4.0 * d2 - d1) / 3.0
    assert rep.rel_error == abs(formula - rep.oracle_value) / max(abs(formula), abs(rep.oracle_value), 1.0)
    assert rep.convergence_order == pytest.approx(np.log2(abs(d1 - formula) / abs(d2 - formula)), rel=1e-12)
    assert 1.8 < rep.convergence_order < 2.2
    assert rep.rel_error < 1e-6


_NON_FINITE = [
    ("graph", {"coeffs": {(1, 0): 1}}, "1/K"),  # a plane: K = 0 everywhere
    ("torus", {"R": 2.0, "a": 1.0}, "log(K)"),  # K < 0 on the inner half
    ("catenoid", {}, "sqrt(H)"),  # H = 0 up to round-off of either sign
]


@pytest.mark.parametrize("surface,params,expr", _NON_FINITE, ids=["inv_K-graph", "log_K-torus", "sqrt_H-catenoid"])
def test_non_finite_density_raises_guard_violation(surface, params, expr):
    """An energy, variation or residual whose density is inf or NaN at a
    node raises GuardViolation naming that node, before any integral."""
    s = sample_builtin(surface, params)
    E = density_from_expr(expr, expr)
    u = ScalarField.constant(1.0, s)
    calls = (
        lambda: functional_value(s, E),
        lambda: first_variation(s, E, u),
        lambda: second_variation(s, E, u, force=True),
        lambda: el_residual(s, E),
    )
    cs = curvature_scalars(s)
    for call in calls:
        with pytest.raises(GuardViolation, match=f"density '{re.escape(expr)}' is not finite at node") as err:
            call()
        with np.errstate(all="ignore"):
            assert not np.isfinite(E.partials[(0, 0)](cs.H[err.value.node], cs.K[err.value.node]))
        assert str(err.value.node) in str(err.value)


def test_el_residual_refuses_non_finite_third_partials():
    """H^(5/2) on a plane is 0 with finite E_H and E_HH, but its third
    partial 15/(8 sqrt(H)) is inf; the chain-rule jet of E_H would be NaN."""
    s = sample_builtin("graph", {"coeffs": {(1, 0): 1}})
    E = density_from_expr("H**2*sqrt(H)", "H^(5/2)")
    assert functional_value(s, E) == 0.0
    with pytest.raises(GuardViolation, match=r"not finite at node \(0, 0\): HHH = inf"):
        el_residual(s, E)


@pytest.mark.parametrize("name,seed", [("graph", 3), ("graph", 11), ("catenoid", 3), ("catenoid", 11)])
def test_value_only_field_oracle_on_open_charts(name, seed):
    """A field given only by its grid values (as read from a CSV) deforms
    through its grid partials, and its oracle agrees with the formula as
    the same field with its own jet does. Measured rel_error: 4.5e-8 /
    4.2e-8 on the graph, 5.2e-7 / 6.1e-7 on the catenoid; order 2.0."""
    s = sample_builtin(name, {})
    u = ScalarField(random_smooth_field(s, seed, compact_v=True).values, s)
    rep = fd_variation_oracle(s, bending(), u, order=1, allow_open=True)
    assert rep.rel_error <= 1e-5
    assert rep.convergence_order >= 1.9


def _h3_geodesic_sphere(a):
    """Numeric-jet geodesic sphere of radius a about the hyperboloid's vertex."""

    def f(U, V):
        sh = np.sinh(a)
        return np.stack(
            [sh * np.sin(V) * np.cos(U), sh * np.sin(V) * np.sin(U), sh * np.cos(V), np.full(np.shape(U), np.cosh(a))],
            axis=-1,
        )

    return sample_callable(f, default_domain("sphere"), sf=SpaceForm.hyperbolic(1.0))


@pytest.mark.parametrize(
    "space,a",
    [("S3", 0.3), ("S3", np.pi / 4), ("S3", 1.2), ("S3", 2.0), ("H3", 0.3), ("H3", 0.7), ("H3", 1.5)],
)
def test_willmore_conformal_invariance_on_geodesic_spheres(space, a):
    """The Willmore energy integral of (H^2 + k0) dS is conformally
    invariant, so every geodesic sphere has 4 pi, the value of the round
    sphere in E^3: catalog spheres in S^3 (k0 = 1) and numeric-jet spheres
    in H^3 (k0 = -1). Measured relative error <= 2e-15."""
    if space == "S3":
        s, k0 = sample_builtin("geodesic_sphere_S3", {"a": a}), 1.0
    else:
        s, k0 = _h3_geodesic_sphere(a), -1.0
    F = functional_value(s, willmore(k0))
    assert abs(F - 4 * np.pi) <= 1e-12 * 4 * np.pi


def test_order2_oracle_classifies_each_density_once(sphere, monkeypatch):
    """An order-2 oracle takes each density's multiplier from the
    classification that guards second_variation: one EL residual per
    density (two rules used to make two)."""
    import curvevar.variations as variations

    calls = []
    real = variations._el_residual
    monkeypatch.setattr(variations, "_el_residual", lambda s, E: calls.append(E.name) or real(s, E))
    fd_variation_oracle_many(sphere, [willmore(), pwillmore(3)], harmonic_field(sphere, 2, 0), order=2)
    assert len(calls) == 2


def test_criticality_evaluates_each_partial_once(sphere):
    """One classification evaluates each partial of the density once and
    runs its domain guard once: E for the criticality scale comes from the
    residual's own evaluation, and the jets of E_H and E_K share their
    partials (it used to evaluate E, E_HK, HHK and HKK twice and run the
    guard three times)."""
    from collections import Counter

    from curvevar.densities import ORDERS
    from curvevar.variations import _criticality

    calls = Counter()

    def counting(name, fn):
        return lambda H, K: calls.update([name]) or fn(H, K)

    E = pwillmore(3)
    E = dataclasses.replace(
        E,
        domain_guard=counting("guard", lambda H, K: np.ones(np.shape(H), dtype=bool)),
        partials={ij: counting(name, E.partials[ij]) for ij, name in ORDERS.items()},
    )
    assert _criticality(sphere, E)[0] == "constrained"
    assert calls == dict.fromkeys([*ORDERS.values(), "guard"], 1)


def test_area_mean_is_the_quadrature_mean():
    """The mean behind the multiplier, the reported mean residual and the
    el-residual mean is integrate's quadrature over the area, trapezoid
    half-weights at open edges and Fejer weights on a pole-offset chart
    included; on the catenoid the node mean of the K^2 residual read
    -0.0852 against -0.0964."""
    from curvevar import area, default_domain, sample_callable
    from curvevar.variations import _area_mean

    def ellipsoid(U, V):
        return np.stack([np.sin(V) * np.cos(U), 1.5 * np.sin(V) * np.sin(U), 0.8 * np.cos(V)], axis=-1)

    cases = [
        (sample_builtin("catenoid", {}), ksquared()),
        (sample_builtin("graph", {}), willmore()),
        (sample_builtin("torus", {}), willmore()),
        (sample_callable(ellipsoid, default_domain("sphere")), willmore()),
    ]
    for s, E in cases:
        res = el_residual(s, E)
        expected = integrate(res, s) / area(s)
        assert abs(_area_mean(res) - expected) <= 1e-14 * abs(expected), s.name


def test_order2_oracle_formula_is_augmented_by_the_classified_multiplier(sphere):
    """On the unit sphere H^3 is volume-constrained critical with lambda
    the mean EL residual (1); the order-2 report's formula is the second
    variation minus lambda times the volume's second variation."""
    from curvevar import volume_variations
    from curvevar.variations import _criticality

    E, y20 = pwillmore(3), harmonic_field(sphere, 2, 0)
    kind, lam, _ = _criticality(sphere, E)
    assert kind == "constrained" and lam == pytest.approx(1.0, abs=1e-12)
    rep = fd_variation_oracle(sphere, E, y20, order=2)
    assert rep.formula_value == second_variation(sphere, E, y20) - lam * volume_variations(sphere, y20)[1]


def test_zero_mean_refusal_says_how_far_off(sphere):
    """At a constrained-critical immersion the refusal of a field with
    nonzero mean reports the mean residual, and |mean u| against its
    bound."""
    with pytest.raises(NotCriticalError, match=r"mean residual 1\b.*\|mean u\| = 1\.000e\+00, bound 2\.000e-08"):
        second_variation(sphere, pwillmore(3), ScalarField.constant(1.0, sphere))


def test_oracle_measures_one_deformed_sample_at_a_time(torus, monkeypatch):
    """The oracle's deformed samples are built, measured and dropped one at
    a time: while one is measured, or the next one is checked, no earlier
    one is alive."""
    import weakref

    import curvevar.surface as surface
    from curvevar.variations import _differences

    seen, alive_at = [], []

    def alive():
        return sum(r() is not None for r in seen)

    real_check = surface.check_immersion
    monkeypatch.setattr(surface, "check_immersion", lambda d, where="": alive_at.append(("check", alive())) or real_check(d, where))

    def measure(st):
        alive_at.append(("measure", alive()))
        seen.append(weakref.ref(st))
        return [functional_value(st, willmore())]

    _differences(torus, random_smooth_field(torus, 4), 1, measure)
    assert alive_at == [("check", 0), ("measure", 0)] * 4


def test_evolution_check_builds_each_hessian_once(torus, monkeypatch):
    """One evolution check of all seven quantities builds Hess u and Hess f
    once on the surface, and Hess f once on each deformed sample (the
    Laplacians are their traces)."""
    import curvevar.calculus as calculus
    import curvevar.variations as variations

    calls = []
    real = calculus.hessian

    def counting(f, s):
        calls.append(("u" if f is u else "f" if f.values is fv.values else "other", s is torus))
        return real(f, s)

    monkeypatch.setattr(calculus, "hessian", counting)
    monkeypatch.setattr(variations, "hessian", counting)
    u, fv = random_smooth_field(torus, 4), random_smooth_field(torus, 5)
    evolution_check_many(torus, u, f=fv)
    assert sorted(calls) == sorted([("u", True), ("f", True)] + [("f", False)] * 4)


# peak traced memory of one evolution check of all seven quantities at
# 64x32, the surface's caches warm. Measured with each pair of steps
# differenced as soon as it is measured and each quantity's differences
# dropped once it is reported: 1.98e6 B on the torus and 2.20e6 B on
# geodesic_sphere_S3; 2.49e6 B and 2.59e6 B when the measures of all four
# steps and the differences of all seven quantities were kept to the end
EVOLUTION_PEAK_BOUND = {"torus": 2.2e6, "geodesic_sphere_S3": 2.4e6}


@pytest.mark.parametrize("name", sorted(EVOLUTION_PEAK_BOUND))
def test_evolution_check_peak_memory(name):
    import tracemalloc

    from curvevar import default_domain

    s = sample_builtin(name, {}, domain=default_domain(name, {}, 64, 32))
    u, f = random_smooth_field(s, 3), random_smooth_field(s, 4)
    first = evolution_check_many(s, u, f=f)  # fills the surface's caches
    tracemalloc.start()
    try:
        again = evolution_check_many(s, u, f=f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    assert peak < EVOLUTION_PEAK_BOUND[name], peak


# peak traced memory of the first evolution check of all seven quantities
# on a fresh geodesic_sphere_S3 sample at 64x32, its forms, scalars and
# jets built inside the check. Measured: 1.99e6 B with the first-kind
# Christoffel symbols <r_ab, r_l> and tensors wrapped uncopied; 2.20e6 B
# when the forms cached dg and Gamma^k_ab and TensorField02 copied and
# re-symmetrised each tensor
COLD_EVOLUTION_PEAK_BOUND = 2.1e6


def test_cold_evolution_check_peak_memory():
    import tracemalloc

    from curvevar import default_domain

    s = sample_builtin("geodesic_sphere_S3", {}, domain=default_domain("geodesic_sphere_S3", {}, 64, 32))
    u, f = random_smooth_field(s, 3), random_smooth_field(s, 4)
    tracemalloc.start()
    try:
        reps = evolution_check_many(s, u, f=f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(reps) == sorted(_EVOLUTION_QUANTITIES)
    assert peak < COLD_EVOLUTION_PEAK_BOUND, peak


def test_oracle_builds_the_operators_of_u_once(torus, monkeypatch):
    """An order-1 oracle over five densities builds Hess u once for all of
    them, and each formula value is the one ``first_variation`` gives."""
    import curvevar.variations as variations

    calls = []
    real = variations.hessian

    def counted(f, s):
        calls.append(f)
        return real(f, s)

    u = random_smooth_field(torus, 4)
    Es = (willmore(), bending(), ksquared(), area_density(), helfrich(1.0, 0.3, 0.5))
    monkeypatch.setattr(variations, "hessian", counted)
    reports = fd_variation_oracle_many(torus, Es, u)
    assert calls == [u]
    monkeypatch.undo()
    for E, rep in zip(Es, reports):
        assert rep.formula_value == first_variation(torus, E, u), E.name


# operator calls of each formula on the torus besides its Hessians, as
# many as when each formula was written out in full; the shape tensor and
# h^2 are built at most once
_OPERATOR_LIMITS = {
    "first_variation": {"contract": 1, "metric_trace": 1},
    "el_residual": {"contract": 1, "metric_trace": 2},
    "second_variation": {"contract": 3, "grad_inner": 3, "bilinear": 2, "metric_trace": 1},
    "evolution": {"contract": 4, "grad_inner": 3, "bilinear": 2, "metric_trace": 2},
}
_OPERATORS = ("hessian", "contract", "grad_inner", "bilinear", "metric_trace", "shape_tensor", "h_squared")


@pytest.mark.parametrize(
    "which, hessians", [("first_variation", 1), ("el_residual", 2), ("second_variation", 1), ("evolution", 2)]
)
def test_variations_build_each_hessian_once(torus, monkeypatch, which, hessians):
    """first_variation and the second-variation integral build Hess u once,
    el_residual Hess E_H and Hess E_K once each, and the seven evolution
    formulas Hess u and Hess f once each: every Laplacian and <h, Hess> is
    read from a Hessian already built. No other operator is called more
    often than _OPERATOR_LIMITS allows."""
    import curvevar.calculus as calculus
    import curvevar.variations as variations

    calls = {name: [] for name in _OPERATORS}

    def counting(name):
        real = getattr(calculus, name)

        def op(*args):
            calls[name].append(args[0])
            return real(*args)

        return op

    for name in _OPERATORS:
        op = counting(name)
        monkeypatch.setattr(calculus, name, op)
        monkeypatch.setattr(variations, name, op)
    u, f = random_smooth_field(torus, 4), random_smooth_field(torus, 5)
    run = {
        "first_variation": lambda: first_variation(torus, willmore(), u),
        "el_residual": lambda: el_residual(torus, willmore()),
        "second_variation": lambda: second_variation(torus, willmore(), u, force=True),
        "evolution": lambda: list(_evolution_formulas(torus, u, f, _EVOLUTION_QUANTITIES)),
    }
    run[which]()
    limits = _OPERATOR_LIMITS[which]
    assert len(calls["hessian"]) == len({id(x) for x in calls["hessian"]}) == hessians
    for name in _OPERATORS[1:]:
        assert len(calls[name]) <= limits.get(name, 1 if name in ("shape_tensor", "h_squared") else 0), name


_REFERENCE_DENSITIES = (
    willmore(),
    bending(),
    helfrich(1.0, 0.3, 0.5),
    pwillmore(3),
    ksquared(),
    area_density(),
    willmore(1.0),
)


@pytest.mark.parametrize(
    "name", ["sphere", "torus", "catenoid", "graph", "clifford_torus_S3", "geodesic_sphere_S3", "h3_sphere"]
)
def test_composed_variations_match_the_expanded_reference(name):
    """first_variation and the second-variation integral, composed from
    H'[u], K'[u] and the derivatives of Lap and <h, Hess>, equal the
    expanded integrands of variation_reference to 1e-14 relative to
    max(|value|, 1) (7.1e-15 at most, measured at 128x64); el_residual
    equals its reference bit for bit, so no criticality class or
    multiplier moves."""
    s = _h3_sphere() if name == "h3_sphere" else sample_builtin(name, {})
    open_chart = name in ("catenoid", "graph")
    u = random_smooth_field(s, 4, compact_v=open_chart)
    for E in _REFERENCE_DENSITIES:
        assert np.array_equal(el_residual(s, E).values, reference.el_residual(s, E).values), E.name
        for formula, want in (
            (first_variation, reference.first_variation),
            (lambda *args: second_variation(*args, force=True), reference.second_variation_integral),
        ):
            value, expected = formula(s, E, u), want(s, E, u)
            assert abs(value - expected) <= 1e-14 * max(abs(expected), 1.0), (E.name, want.__name__, value, expected)


@pytest.mark.parametrize("name", ["catenoid", "graph"])
def test_first_variation_needs_no_flag_on_open_charts(name):
    """On an open chart the first variation is the derivative of F for any
    field, compactly supported or not: against the order-1 oracle with
    unwindowed fields, 8.1e-10 relative at most (measured), order 2."""
    s = sample_builtin(name, {})
    for seed in (1, 3):
        u = random_smooth_field(s, seed)
        for E in (bending(), willmore(), ksquared(), area_density()):
            value = first_variation(s, E, u)
            rep = fd_variation_oracle(s, E, u, order=1, allow_open=True)
            assert rep.formula_value == value
            assert abs(value - rep.oracle_value) <= 1e-8 * max(abs(rep.oracle_value), 1.0), (name, seed, E.name)
            assert rep.convergence_order >= 1.9


def _open_chart_field(s):
    """Fields whose u^2 has a normal derivative at the chart's edges."""
    U, V = s.domain.meshes()
    if s.name == "catenoid":
        return ScalarField(1.0 + 0.3 * np.cos(U) * V + 0.2 * V**2, s)
    return ScalarField(1.0 + 0.5 * U + 0.2 * V**2, s)


@pytest.mark.parametrize("name", ["catenoid", "graph"])
def test_second_variation_is_the_second_difference_of_F_on_open_charts(name):
    """The second variation is F''(0) on open charts for fields that are
    not compactly supported: against order-2 differences of plain F (no
    multiplier), 9.8e-10 of max(|F''|, 1) at most (measured). An integrand
    that leaves out 1/2 div(E grad(u^2)) was off by up to 79 %, e.g. 21.986
    for bending on the catenoid, where F'' = 22.772."""
    from curvevar.variations import _differences

    s = sample_builtin(name, {})
    u = _open_chart_field(s)
    Es = (bending(), helfrich(1.0, 0.3, 0.5), helfrich(0.0, 0.0, 1.0), willmore(), area_density(), pwillmore(3))
    best = _differences(s, u, 2, lambda st: [functional_value(st, E) for E in Es])[3]
    for E, want in zip(Es, best):
        value = second_variation(s, E, u, force=True)
        assert abs(value - want) <= 1e-8 * max(abs(want), 1.0), (E.name, value, want)


@pytest.mark.parametrize(
    "name,bound",
    [
        ("torus", 1.8e-8),
        ("clifford_torus_S3", 1.8e-8),
        ("geodesic_sphere_S3", 1.8e-8),
        ("h3_sphere", 1.8e-8),
        ("catenoid", 8.2e-8),
        ("graph", 8.2e-8),
        ("torus_image_S3", 6.3e-9),
        ("torus_image_H3", 6.3e-9),
    ],
)
def test_second_derivatives_at_each_chart_node(name, bound):
    """d^2H/dt^2 = H'' + u <grad H, grad u>, d^2K/dt^2 = K'' + u <grad K,
    grad u> and (dS)''/dS = 2(K - 2 k0) u^2 + |grad u|^2 at each fixed chart
    node, against order-2 differences of H, K and dS: 1.8e-9 (closed) and
    8.2e-9 (open) of each quantity's sup at most (measured), order 2.00.
    Without the transport terms H'' is off by 8 % of its sup on the torus.
    The S^3 and H^3 images of the torus, where H and K vary, measured
    3.4e-10 and 3.9e-10 (H), 5.1e-10 and 6.3e-10 (K), 4.5e-10 and 3.7e-10
    (dS), orders 1.9975-2.0001."""
    from curvevar.curvature import fundamental_forms
    from curvevar.variations import _differences, _operators, _report, _second_derivatives

    numeric = {
        "h3_sphere": _h3_sphere,
        "torus_image_S3": lambda: _torus_image(SpaceForm.sphere(1.0)),
        "torus_image_H3": lambda: _torus_image(SpaceForm.hyperbolic(1.0)),
    }
    s = numeric[name]() if name in numeric else sample_builtin(name, {})
    u = random_smooth_field(s, 3, compact_v=not s.domain.closed)

    def measure(st):
        cs = curvature_scalars(st)
        return [cs.H, cs.K, fundamental_forms(st).dS_weight]

    h1, d1, d2, best = _differences(s, u, 2, measure)
    _, _, ddH, ddK, ddS = _second_derivatives(_operators(s), u)
    for q, formula, a, b, want in zip(("H", "K", "dS"), (ddH, ddK, ddS * fundamental_forms(s).dS_weight), d1, d2, best):
        assert np.max(np.abs(formula - want)) <= bound * np.max(np.abs(formula)), q
        assert _report(formula, want, a, b, h1).convergence_order >= 1.9, q


def test_el_residual_takes_each_grid_partial_once(fft_counts):
    """On a numeric-jet ellipsoid at 128 x 64, an EL residual takes one
    order-2 grid jet of H and one of K, 3 forward and 5 inverse FFTs each
    (one partial at a time, and each field twice, took 24/24); the same
    residual again and a forced second variation after it take none."""
    from curvevar import default_domain, sample_callable

    def ellipsoid(U, V):
        return np.stack([np.sin(V) * np.cos(U), 1.5 * np.sin(V) * np.sin(U), 0.8 * np.cos(V)], axis=-1)

    s = sample_callable(ellipsoid, default_domain("sphere"))
    assert s.shape == (128, 64)
    u = random_smooth_field(s, 3)
    fft_counts[:] = [0, 0]
    el_residual(s, willmore())
    assert fft_counts == [6, 10]
    el_residual(s, willmore())
    assert fft_counts == [6, 10]
    second_variation(s, willmore(), u, force=True)
    assert fft_counts == [6, 10]


def test_evolution_check_keeps_the_grid_jet_of_f(torus, fft_counts):
    """A field without a jet keeps its one grid jet (3 forward, 5 inverse
    FFTs) across the four deformed samples of an evolution check and the
    closed forms (a jet per sample, one partial at a time, took 30/30)."""
    u = random_smooth_field(torus, 4)
    f = ScalarField(random_smooth_field(torus, 202).values, torus)
    fft_counts[:] = [0, 0]
    evolution_check_many(torus, u, f)
    assert fft_counts == [3, 5]


def test_samples_are_freed_by_reference_counting():
    """No cache entry of a sample refers back to a sample, so with the
    cyclic collector off a sample is freed as soon as its last reference
    goes, after an EL residual, both variations, the evolution checks and,
    on the round sphere, harmonic fields and a stability report: on the
    (flipped) catalog torus, the sphere, geodesic_sphere_S3 and the
    numeric-jet H^3 sphere."""
    import gc
    import weakref

    from curvevar import PWillmoreSetting, default_domain, stability_report

    def exercise(name):
        if name == "h3_sphere":
            s = _h3_sphere(nu=32, nv=16)
        else:
            s = sample_builtin(name, {}, domain=default_domain(name, {}, 32, 16))
        assert name != "torus" or s.orientation_sign == -1.0
        E, u, f = willmore(s.sf.k0), random_smooth_field(s, 1), random_smooth_field(s, 2)
        el_residual(s, E)
        first_variation(s, E, u)
        second_variation(s, E, u, force=True)
        evolution_check_many(s, u, f)
        if name == "sphere":
            harmonic_field(s, 2, 1)
            stability_report(PWillmoreSetting(3.0), l_max=2, sample=s)
        return weakref.ref(s)

    enabled = gc.isenabled()
    gc.disable()
    try:
        for name in ("torus", "sphere", "geodesic_sphere_S3", "h3_sphere"):
            assert exercise(name)() is None, name
    finally:
        if enabled:
            gc.enable()
