import dataclasses
import re

import numpy as np
import pytest
import sympy as sp

from curvevar import (
    GuardViolation,
    NotCriticalError,
    curvature_scalars,
    el_residual,
    evolution_check,
    evolution_check_many,
    fd_variation_oracle,
    fd_variation_oracle_many,
    first_variation,
    functional_value,
    harmonic_field,
    integrate,
    random_smooth_field,
    sample_builtin,
    second_variation,
    volume_functional,
)
from curvevar.calculus import ScalarField, curvature_field
from curvevar.densities import area_density, bending, density_from_expr, ksquared, pwillmore, willmore
from curvevar.surface import deform_normal_many


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
    against u (the residual is the L^2 gradient)."""
    for E in (willmore(), ksquared()):
        u = random_smooth_field(torus, 7)
        res = el_residual(torus, E)
        assert first_variation(torus, E, u) == pytest.approx(
            integrate(res.values * u.values, torus), abs=1e-7
        )


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


def test_volume_functional(sphere, sphere2):
    assert abs(volume_functional(sphere)) == pytest.approx(4 * np.pi / 3, abs=1e-9)
    assert abs(volume_functional(sphere2)) == pytest.approx(32 * np.pi / 3, abs=1e-8)


def test_volume_variation_oracle(sphere):
    """d(Vol) along the normal flow equals the integral of u dS up to sign
    conventions; check |dV/dt| against the flux formula by differencing."""
    u = random_smooth_field(sphere, 15)
    from curvevar.surface import deform_normal

    t = 1e-4
    dv = (volume_functional(deform_normal(sphere, u, t)) - volume_functional(deform_normal(sphere, u, -t))) / (2 * t)
    assert abs(abs(dv) - abs(integrate(u.values, sphere))) < 1e-6


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


def test_oracle_explicit_step(torus):
    u = random_smooth_field(torus, 18)
    rep = fd_variation_oracle(torus, bending(), u, order=1, h=4e-3)
    assert rep.fd_step == 4e-3
    assert rep.rel_error < 1e-5
    assert rep.convergence_order > 1.8


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
        lambda: functional_value(s, E, allow_open=True),
        lambda: first_variation(s, E, u, allow_open=True),
        lambda: second_variation(s, E, u, allow_open=True, force=True),
        lambda: el_residual(s, E),
    )
    cs = curvature_scalars(s)
    for call in calls:
        with pytest.raises(GuardViolation, match=f"density '{re.escape(expr)}' is not finite at node") as err:
            call()
        with np.errstate(all="ignore"):
            assert not np.isfinite(E.eval(cs.H[err.value.node], cs.K[err.value.node]))
        assert str(err.value.node) in str(err.value)


def test_el_residual_refuses_non_finite_third_partials():
    """H^(5/2) on a plane is 0 with finite E_H and E_HH, but its third
    partial 15/(8 sqrt(H)) is inf; the chain-rule jet of E_H would be NaN."""
    s = sample_builtin("graph", {"coeffs": {(1, 0): 1}})
    E = density_from_expr("H**2*sqrt(H)", "H^(5/2)")
    assert functional_value(s, E, allow_open=True) == 0.0
    with pytest.raises(GuardViolation, match=r"not finite at node \(0, 0\): HHH = inf"):
        el_residual(s, E)


# largest |difference| measured between the two routes: 2.3e-12 on the
# torus, 5.6e-9 on the unit sphere (whose lat-long chart's pole rows
# amplify grid-differentiation round-off)
_FALLBACK_BOUND = {"torus": 1e-11, "sphere": 2e-8}


@pytest.mark.parametrize("name", ["torus", "sphere"])
def test_el_residual_grid_partial_fallback(name, request):
    """Without third partials, the composed fields E_H(H, K) and E_K(H, K)
    of the residual take grid partials of their values instead of
    chain-rule jets; both routes agree to the measured bound."""
    s = request.getfixturevalue(name)
    for E in (willmore(), bending(), pwillmore(3), ksquared()):
        assert E.third is not None
        jet_route = el_residual(s, E).values
        grid_route = el_residual(s, dataclasses.replace(E, third=None)).values
        assert np.max(np.abs(grid_route - jet_route)) < _FALLBACK_BOUND[name], E.name


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
    from curvevar import SpaceForm, default_domain, sample_callable

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
    real = variations.el_residual
    monkeypatch.setattr(variations, "el_residual", lambda s, E: calls.append(E.name) or real(s, E))
    fd_variation_oracle_many(sphere, [willmore(), pwillmore(3)], harmonic_field(sphere, 2, 0), order=2)
    assert len(calls) == 2


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
