import math

import numpy as np
import pytest

from curvevar import (
    PWillmoreSetting,
    coercivity_bound,
    el_residual,
    harmonic_field,
    harmonic_project,
    integrate,
    poincare_check,
    random_span_field,
    sample_builtin,
    second_variation,
    sphere_index_form,
    sphere_spectrum,
    stability_report,
    volume_variations,
)
from curvevar.calculus import ScalarField
from curvevar.densities import pwillmore
from curvevar.errors import ConfigError


def test_spectrum_values():
    assert sphere_spectrum(0) == (0.0, 1)
    assert sphere_spectrum(1) == (2.0, 3)
    assert sphere_spectrum(2) == (6.0, 6)
    assert sphere_spectrum(3) == (12.0, 10)
    lam, mult = sphere_spectrum(2, r=2.0)
    assert lam == pytest.approx(1.5)
    assert mult == 6


def test_harmonics_are_eigenfunctions(sphere):
    from curvevar import laplace_beltrami

    for l in (1, 2, 4):
        for m in (-l, 0, l - 1):
            y = harmonic_field(sphere, l, m)
            res = laplace_beltrami(y, sphere).values + l * (l + 1) * y.values
            assert np.max(np.abs(res)) < 1e-9, (l, m)


def test_harmonics_orthonormal(sphere2):
    pairs = [((1, 0), (1, 0), 1.0), ((1, 0), (2, 0), 0.0), ((2, 1), (2, 1), 1.0), ((2, 1), (2, -1), 0.0), ((3, 2), (3, 2), 1.0)]
    for (l1, m1), (l2, m2), expected in pairs:
        y1 = harmonic_field(sphere2, l1, m1)
        y2 = harmonic_field(sphere2, l2, m2)
        assert integrate(y1.values * y2.values, sphere2) == pytest.approx(expected, abs=1e-10)


def _harmonic_jet_on_grid(y, U, V):
    """Y_{l,m}'s jet with both factors built on the whole grid."""
    from curvevar.curvature import Taylor2
    from curvevar.pwillmore import _legendre

    am, zero = abs(y.m), np.zeros(np.shape(U))
    c, s = np.cos(V), np.sin(V)
    out = y.scale * _legendre(y.l, am, Taylor2((c, zero, -s, zero, zero, -c)), Taylor2((s, zero, c, zero, zero, -s)))
    if y.m == 0:
        return out
    ca, sa = math.sqrt(2.0) * np.cos(am * U), math.sqrt(2.0) * np.sin(am * U)
    if y.m > 0:
        return out * Taylor2((ca, -am * sa, zero, -(am**2) * ca, zero, zero))
    return out * Taylor2((sa, am * ca, zero, -(am**2) * sa, zero, zero))


@pytest.mark.parametrize("grid", [(128, 64), (32, 16)])
def test_harmonic_jets_match_the_whole_grid_route_byte_for_byte(grid):
    """Y_{l,m}'s jet takes its polar factor on one row of the chart and its
    azimuthal factor on one column; for l <= 6 every part equals the jet
    built on the whole grid byte for byte, -0 included."""
    from curvevar.catalog import default_domain
    from curvevar.pwillmore import _harmonic_expr

    U, V = default_domain("sphere", None, *grid).meshes()
    for l in range(7):
        for m in range(-l, l + 1):
            y = _harmonic_expr(l, m)
            for i, (x, want) in enumerate(zip(y.jet(U, V).parts, _harmonic_jet_on_grid(y, U, V).parts)):
                assert x.shape == want.shape and x.dtype == want.dtype, (l, m, i)
                assert x.tobytes() == want.tobytes(), (l, m, i)


def test_harmonic_projection_parseval(sphere):
    u = random_span_field(sphere, 21)
    dec = harmonic_project(u, l_max=8)
    assert dec.parseval_defect() < 1e-8
    assert integrate(u.values**2, sphere) == pytest.approx(1.0, abs=1e-8)


def test_projection_recovers_coefficients(sphere):
    y20 = harmonic_field(sphere, 2, 0)
    y31 = harmonic_field(sphere, 3, 1)
    u = 0.5 * y20 + (-1.25) * y31
    dec = harmonic_project(u, l_max=5)
    assert dec.coefficients[(2, 0)] == pytest.approx(0.5, abs=1e-10)
    assert dec.coefficients[(3, 1)] == pytest.approx(-1.25, abs=1e-10)
    assert dec.coefficients[(4, 0)] == pytest.approx(0.0, abs=1e-10)


def test_index_form_known_values(sphere):
    setting = PWillmoreSetting(3.0)
    assert sphere_index_form(setting, harmonic_field(sphere, 1, 0)) == pytest.approx(-2.0, abs=1e-9)
    assert sphere_index_form(setting, harmonic_field(sphere, 2, 0)) == pytest.approx(26.0, abs=1e-9)


def test_index_form_closed_expression(sphere2):
    """Against the eigenvalue form r^{-p}[p(p-1) r^2 lam^2/4
    - (p^2-p-1) lam + (p-1)(p-2)/r^2] for unit-norm harmonics."""
    r = 2.0
    for p in (2.0, 3.0, 2.5):
        setting = PWillmoreSetting(p, r)
        for l in (1, 2, 3):
            lam = l * (l + 1) / r**2
            expected = (0.25 * p * (p - 1) * r**2 * lam**2 - (p**2 - p - 1) * lam + (p - 1) * (p - 2) / r**2) / r**p
            got = sphere_index_form(setting, harmonic_field(sphere2, l, 0))
            assert got == pytest.approx(expected, abs=1e-9), (p, l)


def test_index_form_matches_general_second_variation(sphere):
    """The sphere-specialized index form agrees with the general
    second-variation machinery for the H^p density."""
    for p in (2, 3):
        setting = PWillmoreSetting(float(p))
        for l, m in ((1, 0), (2, 0), (2, 2), (3, -1)):
            u = harmonic_field(sphere, l, m)
            special = sphere_index_form(setting, u)
            general = second_variation(sphere, pwillmore(p), u)
            assert abs(special - general) < 1e-6, (p, l, m)


def test_index_form_rotational_symmetry(sphere):
    setting = PWillmoreSetting(2.5)
    vals = [sphere_index_form(setting, harmonic_field(sphere, 3, m)) for m in range(-3, 4)]
    assert max(vals) - min(vals) < 1e-8


def test_index_form_rejects_nonzero_mean(sphere):
    with pytest.raises(ConfigError):
        sphere_index_form(PWillmoreSetting(2.0), ScalarField.constant(1.0, sphere))


def test_index_form_rejects_a_setting_of_another_radius(sphere):
    with pytest.raises(ConfigError, match="^field lives on a sphere of radius 1, setting says 2$"):
        sphere_index_form(PWillmoreSetting(3.0, 2.0), harmonic_field(sphere, 2, 0))


def test_el_residual_specialization(sphere2):
    """The specialised H^p residual of variation_reference against the
    general Euler-Lagrange residual."""
    import variation_reference as reference

    for p in (2.0, 3.0):
        special = reference.pwillmore_el_residual(sphere2, p)
        general = el_residual(sphere2, pwillmore(p))
        assert np.max(np.abs(special.values - general.values)) < 1e-8


def test_minimal_surface_solves_pwillmore_flow():
    """Minimal surfaces are p-Willmore critical for p >= 2 (every term of
    the residual carries a factor of H)."""
    s = sample_builtin("catenoid", {})
    assert np.max(np.abs(el_residual(s, pwillmore(3.0)).values)) < 1e-10


def test_sphere_residual_is_constant(sphere2):
    res = el_residual(sphere2, pwillmore(3.0)).values
    assert np.max(res) - np.min(res) < 1e-9
    # value: p(2H^2 - K) H^{p-1} - 2 H^{p+1} = (p - 2) / r^{p+1} at H = K^(1/2) = 1/r
    assert np.mean(res) == pytest.approx(1.0 / 2.0**4, abs=1e-9)


def test_poincare_chain(sphere):
    rep = poincare_check(harmonic_field(sphere, 2, 0))
    assert rep.passes
    assert rep.equality  # l = 2 saturates both bounds
    assert rep.ratios[0] == pytest.approx(1.0, abs=1e-9)
    assert rep.ratios[1] == pytest.approx(1.0, abs=1e-9)
    rep3 = poincare_check(harmonic_field(sphere, 3, 1))
    assert rep3.passes
    assert not rep3.equality
    assert rep3.ratios[0] == pytest.approx(2.0, abs=1e-8)
    assert rep3.ratios[1] == pytest.approx(4.0, abs=1e-8)


def test_poincare_requires_orthogonality(sphere):
    with pytest.raises(ConfigError):
        poincare_check(harmonic_field(sphere, 1, 0))
    with pytest.raises(ConfigError):
        poincare_check(ScalarField.constant(1.0, sphere))


def test_volume_variations(sphere):
    u = harmonic_field(sphere, 2, 0)
    dv, d2v = volume_variations(sphere, u)
    assert abs(dv) < 1e-10
    assert d2v == pytest.approx(-2.0, abs=1e-9)  # -2 H |u|^2 with H = 1, unit norm


def test_stability_report_sign_patterns():
    rep2 = stability_report(PWillmoreSetting(2.0), l_max=4)
    assert rep2.sign_summary.startswith("l=1:0")
    assert all(s.endswith("+") for s in rep2.sign_summary.split()[1:])

    rep3 = stability_report(PWillmoreSetting(3.0), l_max=4)
    assert rep3.sign_summary.split()[0] == "l=1:-"
    assert "unstable" in rep3.verdict

    # p = 1: the first-eigenspace value is (p^2 - p - 1) lam = +2 > 0
    rep1 = stability_report(PWillmoreSetting(1.0), l_max=4)
    assert rep1.sign_summary.split()[0] == "l=1:+"


def test_coercivity_bound_holds():
    for p in (2.0, 2.5, 3.0, 4.0):
        for r in (1.0, 2.0):
            rep = stability_report(PWillmoreSetting(p, r), l_max=5)
            assert rep.coercivity_bound == pytest.approx((2 * p**2 - 3 * p + 4) / (2 * r**2))
            assert rep.min_rayleigh >= rep.coercivity_bound - 1e-9


def test_setting_validation():
    with pytest.raises(ConfigError):
        PWillmoreSetting(0.5)
    with pytest.raises(ConfigError):
        PWillmoreSetting(2.0, r=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_exponent_and_radius_are_refused(bad, sphere):
    """A NaN passes a bare p < 1 test, and inf passes it too: the setting
    and the H^p density each refuse both, and the setting's radius must be
    positive and finite as in sphere_spectrum."""
    from curvevar.densities import builtin_density

    for build in (
        lambda: PWillmoreSetting(bad),
        lambda: pwillmore(bad),
        lambda: builtin_density("pwillmore", p=bad),
    ):
        with pytest.raises(ConfigError, match=r"exponent p must be >= 1 and finite \(got p = "):
            build()
    for r in (bad, 0.0):
        with pytest.raises(ConfigError, match=r"sphere radius must be positive and finite \(got r = "):
            PWillmoreSetting(2.0, r=r)


def test_spectrum_math_consistency():
    for k in range(6):
        lam, mult = sphere_spectrum(k)
        assert lam == k * (k + 1)
        assert mult == math.comb(k + 2, 2)


@pytest.mark.parametrize("r", [1e200, 1e-200])
def test_radius_whose_square_overflows_or_vanishes_is_refused(r):
    """sphere_spectrum raised a raw OverflowError at r = 1e200 and a
    ZeroDivisionError at r = 1e-200; the setting took both radii."""
    for build in (lambda: sphere_spectrum(2, r), lambda: PWillmoreSetting(2.0, r)):
        with pytest.raises(ConfigError, match=r"sphere radius must have r\^2 and 1/r\^2 finite and nonzero"):
            build()


def test_el_residual_names_the_first_guard_node():
    """The Euler-Lagrange residual of H^2.5 refuses the minimal catenoid at
    the first node where H <= 0 (a second, specialised H^p route used to
    name the node of the smallest H)."""
    from curvevar.errors import GuardViolation

    s = sample_builtin("catenoid", {})
    with pytest.raises(GuardViolation) as err:
        el_residual(s, pwillmore(2.5))
    node, H = err.value.node, s._cache["scalars"].H
    assert H[node] <= 0
    assert not np.any(H.ravel()[: np.ravel_multi_index(node, H.shape)] <= 0)
