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
    from curvevar.calculus import TensorField02
    from curvevar.curvature import fundamental_forms

    f = random_smooth_field(torus, 4)
    tr = contract(TensorField02(fundamental_forms(torus).g, torus), hessian(f, torus), torus)
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


def test_tensor_field_wraps_a_symmetric_array_and_refuses_others(torus):
    """TensorField02 keeps the symmetric array it is given, uncopied, and
    refuses one whose (0, 1) and (1, 0) entries differ anywhere."""
    from curvevar.calculus import TensorField02
    from curvevar.curvature import fundamental_forms
    from curvevar.errors import ConfigError

    h = fundamental_forms(torus).h
    assert shape_tensor(torus).comps is h
    skew = h.copy()
    skew[3, 5, 0, 1] += 1e-12
    with pytest.raises(ConfigError, match="not symmetric"):
        TensorField02(skew, torus)


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
    assert np.array_equal(f.values, g.values)  # %.17g reads back exactly


def test_open_patch_integration_guard():
    """integrate takes an open patch as it is; only the oracles, whose
    order-2 rows with a multiplier need compactly supported fields there,
    refuse one without allow_open."""
    from curvevar import fd_variation_oracle, fd_variation_oracle_many
    from curvevar.densities import bending
    from curvevar.errors import ConfigError

    s = sample_builtin("graph", {})
    assert integrate(np.ones(s.shape), s) > 0
    u = random_smooth_field(s, 1)
    for oracle in (fd_variation_oracle, lambda s, E, u: fd_variation_oracle_many(s, (E,), u)):
        with pytest.raises(ConfigError, match="non-closed patch requires allow_open=True"):
            oracle(s, bending(), u)


@pytest.mark.parametrize("name", ["sphere", "graph"])
def test_quadrature_weights_are_built_once_per_chart(name, monkeypatch):
    """Each axis of a chart builds its quadrature weights once, the pole
    axis's Fejer sums included, and hands them out read-only: a second
    ``integrate`` on the same sample builds none and gives the same value."""
    from functools import cached_property

    from curvevar.surface import ChartAxis

    built, build = [], ChartAxis.weights.func
    counted = cached_property(lambda ax: built.append(ax.kind) or build(ax))
    counted.__set_name__(ChartAxis, "weights")
    monkeypatch.setattr(ChartAxis, "weights", counted)
    s = sample_builtin(name, {}, domain=default_domain(name, None, 16, 16))
    first = integrate(np.ones(s.shape), s)
    assert sorted(built) == sorted(ax.kind for ax in s.domain.axes)
    assert integrate(np.ones(s.shape), s) == first and len(built) == 2
    for ax in s.domain.axes:
        with pytest.raises(ValueError, match="read-only"):
            ax.weights[0] = 0.0


def test_expressions_with_unknown_symbols_are_refused(torus):
    """A field expression in a symbol other than u, v is refused naming it,
    as a density expression in a symbol other than H, K is; both used to
    fail in lambdify with a raw TypeError."""
    from curvevar.densities import density_from_expr
    from curvevar.errors import ConfigError

    with pytest.raises(ConfigError, match=r"field expression has unknown symbols: \[a\]"):
        ScalarField.from_expr("sin(u) + a", torus)
    with pytest.raises(ConfigError, match=r"density expression has unknown symbols: \[u\]"):
        density_from_expr("H**2 + u", "bad")
    # symbols are matched by name, whatever their assumptions
    u, v = sp.symbols("u v", positive=True)
    f = ScalarField.from_expr(sp.cos(u) * sp.sin(v), torus)
    UU, VV = torus.domain.meshes()
    assert np.array_equal(f.values, np.cos(UU) * np.sin(VV))


def test_a_repeated_expression_is_lambdified_once(torus, monkeypatch):
    """The partials of a field expression are lambdified on its first use
    and kept: a second ``from_expr`` of the same expression, whatever the
    assumptions on its symbols, calls ``sympy.lambdify`` no more and gives
    the same jet. An unknown symbol is refused on every call."""
    from curvevar.densities import _lambdified
    from curvevar.errors import ConfigError

    calls = []
    lambdify = sp.lambdify

    def counting(*args, **kwargs):
        calls.append(args[1])
        return lambdify(*args, **kwargs)

    monkeypatch.setattr(sp, "lambdify", counting)
    _lambdified.cache_clear()
    first = ScalarField.from_expr("cos(u) * sin(2*v)", torus)
    assert len(calls) == 6
    u, v = sp.symbols("u v")
    again = ScalarField.from_expr(sp.cos(u) * sp.sin(2 * v), torus)
    assert len(calls) == 6
    for x, y in zip(first.jet.parts, again.jet.parts):
        assert np.array_equal(x, y)
    for _ in range(2):
        with pytest.raises(ConfigError, match=r"field expression has unknown symbols: \[w\]"):
            ScalarField.from_expr("cos(u) * w", torus)
    assert len(calls) == 6


def test_operators_refuse_a_field_from_another_chart_grid(torus, sphere, clifford):
    """The torus and the sphere share a 128 x 64 grid but not a chart: the
    operators, the quadrature, field addition and the variation formulas
    refuse a torus field on the sphere (they used to return numbers, e.g. a
    Laplacian with sup 6263). A torus field stays accepted on another
    sample of the torus's chart grid, and adds to a field there."""
    from curvevar import deform_normal, first_variation
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
        lambda: random_smooth_field(sphere, 3) + u,
    )
    for call in refused:
        with pytest.raises(ConfigError, match="the field lives on the chart grid of torus, not on that of sphere"):
            call()
    assert clifford.domain == torus.domain
    assert np.isfinite(integrate(laplace_beltrami(u, clifford), clifford))
    H = curvature_field(deform_normal(torus, u, 0.01), "H")
    total = H + u
    assert total.sample is H.sample and np.array_equal(total.values, H.values + u.values)


def test_value_only_field_takes_one_grid_jet(sphere, fft_counts):
    """A field without a jet takes its five partials from one order-2 grid
    jet on first use, 3 forward and 5 inverse FFTs on the lat-long sphere
    (one partial at a time took 6/6), each bit for bit the partial taken
    alone; it refuses partials above order 2 as a Taylor2 jet does."""
    from curvevar.curvature import TAYLOR_INDICES
    from curvevar.errors import ConfigError
    from curvevar.gridops import ChartDerivatives

    f = ScalarField(random_smooth_field(sphere, 3).values, sphere)
    fft_counts[:] = [0, 0]
    jet = f.taylor()
    assert f.taylor().parts[1] is jet.parts[1]
    assert fft_counts == [3, 5]
    for (a, b), x in zip(TAYLOR_INDICES, jet.parts):
        assert np.array_equal(x, ChartDerivatives(sphere.domain).partial(f.values, a, b)), (a, b)
    with pytest.raises(ConfigError, match="Taylor jets carry chart partials to order 2 only"):
        f.partial(3, 0)


def test_curvature_fields_are_built_once_per_orientation(torus):
    """A sample keeps one H jet and one K jet, and every call wraps them in
    a new field; a flipped sample builds its own, with H negated. A
    numeric-jet sample keeps the grid jet of each scalar instead."""
    from curvevar import deform_normal

    H = curvature_field(torus, "H")
    assert curvature_field(torus, "H").jet is H.jet and curvature_field(torus, "K").jet is curvature_field(torus, "K").jet
    flipped = torus.flipped()
    H_flipped = curvature_field(flipped, "H")
    assert H_flipped.jet is not H.jet and curvature_field(flipped, "H").jet is H_flipped.jet
    assert np.array_equal(H_flipped.values, -H.values)
    d = deform_normal(torus, random_smooth_field(torus, 4), 0.01)
    H_d = curvature_field(d, "H")
    again = curvature_field(d, "H")
    assert again is not H_d and again.jet is H_d.jet and again.partial(1, 0) is H_d.partial(1, 0)
    assert curvature_field(d, "K").jet is not H_d.jet

