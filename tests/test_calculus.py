import numpy as np
import pytest
import sympy as sp

from curvevar import (
    ScalarField,
    area,
    default_domain,
    integrate,
    laplace_beltrami,
    random_smooth_field,
    sample_builtin,
    sample_callable,
)
from curvevar.calculus import (
    AmbientPolyField,
    bilinear,
    contract,
    curvature_field,
    export_field_csv,
    grad_inner,
    hessian,
    import_field_csv,
    metric_tensor,
    shape_tensor,
)
from curvevar.catalog import CATALOG_NAMES


def test_areas_machine_precision():
    assert area(sample_builtin("sphere", {"r": 1.0})) == pytest.approx(4 * np.pi, abs=1e-10)
    assert area(sample_builtin("sphere", {"r": 2.0})) == pytest.approx(16 * np.pi, abs=1e-9)
    assert area(sample_builtin("torus", {"R": 2.0, "a": 1.0})) == pytest.approx(8 * np.pi**2, abs=1e-9)
    assert area(sample_builtin("clifford_torus_S3", {})) == pytest.approx(2 * np.pi**2, abs=1e-10)
    a = np.pi / 4
    assert area(sample_builtin("geodesic_sphere_S3", {"a": a})) == pytest.approx(4 * np.pi * np.sin(a) ** 2, abs=1e-10)


def test_divergence_theorem(sphere, torus):
    """Integral of the Laplacian of any smooth field over a closed surface
    vanishes."""
    for s in (sphere, torus):
        f = random_smooth_field(s, 11)
        assert abs(integrate(laplace_beltrami(f, s), s)) < 1e-10


def test_integration_by_parts(torus):
    f1 = random_smooth_field(torus, 1)
    f2 = random_smooth_field(torus, 2)
    lhs = integrate(f1.values * laplace_beltrami(f2, torus).values, torus)
    rhs = -integrate(grad_inner(f1, f2, torus), torus)
    assert abs(lhs - rhs) < 1e-10


def test_hessian_trace_is_laplacian(torus):
    f = random_smooth_field(torus, 4)
    tr = contract(metric_tensor(torus), hessian(f, torus), torus)
    lap = laplace_beltrami(f, torus)
    assert np.max(np.abs(tr.values - lap.values)) < 1e-8


def test_sphere_eigenfunctions(sphere):
    """Coordinate restrictions x, y, z satisfy lap f = -2 f on the unit
    sphere; the degree-3 harmonic z(5z^2-3)/2 satisfies lap f = -12 f."""
    u, v = sp.symbols("u v")
    for expr, lam in (
        (sp.cos(v), 2.0),
        (sp.sin(v) * sp.cos(u), 2.0),
        (sp.sin(v) * sp.sin(u), 2.0),
        ((5 * sp.cos(v) ** 3 - 3 * sp.cos(v)) / 2, 12.0),
    ):
        f = ScalarField.from_expr(expr, sphere)
        res = laplace_beltrami(f, sphere).values + lam * f.values
        assert np.max(np.abs(res)) < 1e-10


def test_analytic_vs_grid_partials(torus):
    u, v = sp.symbols("u v")
    expr = sp.sin(2 * u) * sp.cos(v) + sp.cos(u + v)
    analytic = ScalarField.from_expr(expr, torus)
    grid = ScalarField(analytic.values, torus)
    for a, b in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        assert np.max(np.abs(analytic.partial(a, b) - grid.partial(a, b))) < 1e-9


def test_ambient_poly_field_partials(torus):
    """Chain-rule partials of an ambient quadratic restricted to the surface
    match grid differentiation of its values."""
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 3))
    f = AmbientPolyField(torus, 0.3, rng.standard_normal(3), 0.5 * (M + M.T))
    grid = ScalarField(f.values, torus)
    for a, b in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        scale = max(1.0, np.max(np.abs(grid.partial(a, b))))
        assert np.max(np.abs(f.partial(a, b) - grid.partial(a, b))) / scale < 1e-8


def test_curvature_field_partials():
    """Taylor-jet chart partials of H and K agree with grid differentiation
    on every catalog chart. The catenoid and the graph have a non-periodic
    direction, where 9-point grid stencils on the default 128x64 grid are
    themselves off by up to 3e-5 (graph, d_vv K); they are compared on a
    256x256 grid, where the two routes agree within 1.3e-9."""
    for name in CATALOG_NAMES:
        domain = default_domain(name, {}, 256, 256) if name in ("catenoid", "graph") else None
        s = sample_builtin(name, {}, domain=domain)
        for which in ("H", "K"):
            f = curvature_field(s, which)
            grid = ScalarField(f.values, s)
            for a, b in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
                assert np.max(np.abs(f.partial(a, b) - grid.partial(a, b))) < 1e-8, (name, which, a, b)


def test_numeric_jet_curvature_partials_stay_on_grid():
    """Finite-difference-jet samples take curvature partials from the grid:
    on the unit sphere every chart partial of H and K vanishes, and the grid
    route keeps the second partials near 1e-6, where Taylor jets pushed
    through the inexact order-3/4 jets are off by 1e-3 or more."""

    def unit_sphere(U, V):
        return np.stack([np.sin(V) * np.cos(U), np.sin(V) * np.sin(U), np.cos(V)], axis=-1)

    s = sample_callable(unit_sphere, default_domain("sphere"))
    for which in ("H", "K"):
        f = curvature_field(s, which)
        for a, b in ((2, 0), (1, 1), (0, 2)):
            assert np.max(np.abs(f.partial(a, b))) <= 1e-4, (which, a, b)


def test_shape_tensor_bilinear_symmetry(torus):
    f1 = random_smooth_field(torus, 6)
    f2 = random_smooth_field(torus, 7)
    h = shape_tensor(torus)
    assert np.max(np.abs(bilinear(h, f1, f2, torus) - bilinear(h, f2, f1, torus))) < 1e-12


def test_field_arithmetic(sphere):
    f = random_smooth_field(sphere, 8)
    g = random_smooth_field(sphere, 9)
    s = f + g
    assert np.max(np.abs(s.values - f.values - g.values)) < 1e-15
    assert np.max(np.abs(s.partial(1, 0) - f.partial(1, 0) - g.partial(1, 0))) < 1e-12
    d = 2.0 * f
    assert np.max(np.abs(d.partial(0, 1) - 2.0 * f.partial(0, 1))) < 1e-12


def test_csv_round_trip(tmp_path, torus):
    f = random_smooth_field(torus, 10)
    path = tmp_path / "field.csv"
    export_field_csv(f, path)
    g = import_field_csv(path, torus)
    assert np.max(np.abs(f.values - g.values)) < 1e-12


def test_open_patch_integration_guard():
    from curvevar.errors import ConfigError

    s = sample_builtin("graph", {})
    with pytest.raises(ConfigError):
        integrate(np.ones(s.shape), s)
    assert integrate(np.ones(s.shape), s, allow_open=True) > 0


def test_operators_refuse_a_field_from_another_chart_grid(torus, sphere, clifford):
    """The torus and the sphere share a 128 x 64 grid but not a chart: the
    operators, the quadrature and the variation formulas refuse a torus
    field on the sphere (they used to return numbers, e.g. a Laplacian
    with sup 6263). A field rebound within one chart grid stays accepted."""
    from curvevar import first_variation
    from curvevar.calculus import gradient
    from curvevar.densities import willmore
    from curvevar.errors import ConfigError

    u = random_smooth_field(torus, 3)
    refused = (
        lambda: first_variation(sphere, willmore(), u),
        lambda: laplace_beltrami(u, sphere),
        lambda: gradient(u, sphere),
        lambda: grad_inner(u, u, sphere),
        lambda: bilinear(shape_tensor(sphere), u, u, sphere),
        lambda: contract(hessian(u, torus), shape_tensor(sphere), sphere),
        lambda: contract(shape_tensor(sphere), shape_tensor(torus), sphere),
        lambda: integrate(u, sphere),
    )
    for call in refused:
        with pytest.raises(ConfigError, match="the field lives on the chart grid of torus, not on that of sphere"):
            call()
    assert clifford.domain == torus.domain
    w = u.with_sample(clifford)
    assert np.isfinite(integrate(laplace_beltrami(w, clifford), clifford))
