import re

import numpy as np
import pytest

from curvevar import (
    PatchDomain,
    SpaceForm,
    SpaceForm,
    area,
    curvature_scalars,
    default_domain,
    deform_normal,
    deform_normal_many,
    sample_builtin,
    sample_callable,
)
from curvevar.calculus import ScalarField, random_smooth_field
from curvevar.catalog import CATALOG_NAMES
from curvevar.errors import ConfigError, DegenerateMetricError
from curvevar.surface import numeric_jets, spectral_tail


def _torus_map(R=2.0, a=1.0):
    def f(U, V):
        x = (R + a * np.cos(V)) * np.cos(U)
        y = (R + a * np.cos(V)) * np.sin(U)
        z = a * np.sin(V)
        return np.stack([x, y, z], axis=-1)

    return f


def _h3_sphere_map(a=0.7):
    """Geodesic sphere of radius a about the hyperboloid's vertex."""

    def f(U, V):
        sh = np.sinh(a)
        return np.stack(
            [sh * np.sin(V) * np.cos(U), sh * np.sin(V) * np.sin(U), sh * np.cos(V), np.full(np.shape(U), np.cosh(a))],
            axis=-1,
        )

    return f


def _h3_sphere(a=0.7, nu=64, nv=32):
    """Numeric-jet geodesic sphere of radius a in H^3, oriented so that H > 0."""
    s = sample_callable(_h3_sphere_map(a), default_domain("sphere", None, nu, nv), sf=SpaceForm.hyperbolic(1.0))
    return s if np.mean(curvature_scalars(s).H) > 0 else s.flipped()


def _loop_numeric_jets(f, domain):
    """Reference numeric jets by the per-axis rule: the map evaluated up
    front at every offset, the 7 of the stencil along an open axis and the
    node alone along a closed one; each stencil sum over the open offsets
    formed on its own, over the offsets where its weight is non-zero; then
    each sum differentiated along the closed axes by
    ChartDerivatives.partial, one multi-index at a time."""
    from curvevar.gridops import ChartDerivatives, fd_weights
    from curvevar.surface import MULTI_INDICES

    UU, VV = domain.meshes()
    is_open = [ax.kind == "open" for ax in domain.axes]
    steps = [2e-3 * ax.length for ax in domain.axes]
    offs = [np.arange(-3, 4) if o else np.zeros(1, dtype=int) for o in is_open]
    evals = {
        (i, j): np.asarray(f(UU + offs[0][i] * steps[0], VV + offs[1][j] * steps[1]), dtype=float)
        for i in range(len(offs[0]))
        for j in range(len(offs[1]))
    }

    def weights(m, axis):
        if not is_open[axis]:
            return np.ones(1)  # the node alone, for the sum of order 0
        o = offs[axis]
        w = np.array(o == 0, dtype=float) if m == 0 else fd_weights(o * steps[axis], m)
        if m % 2:
            w[3] = 0.0
        return w

    ops = ChartDerivatives(domain)
    jets = {}
    for a, b in MULTI_INDICES:
        # the orders along open axes come from the stencil, the rest spectrally
        p, q = a * is_open[0], b * is_open[1]
        wu, wv = weights(p, 0), weights(q, 1)
        terms = [wu[i] * wv[j] * x for (i, j), x in evals.items() if wu[i] * wv[j] != 0.0]
        acc = terms[0]
        for term in terms[1:]:
            acc = acc + term
        jets[(a, b)] = ops.partial(acc, a - p, b - q)
    return jets


def _assert_jets_equal(got, want, where=""):
    assert got.keys() == want.keys()
    for ab in want:
        assert np.array_equal(got[ab], want[ab]), (where, ab)


# open charts keep stencil jets: the torus map periodic in u only, and the
# sphere charts on a latitude band without pole offset
_OPEN_TORUS = PatchDomain((0, 2 * np.pi), (0, 2 * np.pi), 32, 16, periodic_u=True)
_OPEN_BAND = PatchDomain((0, 2 * np.pi), (0.3, np.pi - 0.3), 32, 16, periodic_u=True)


def _graph_case():
    from curvevar.catalog import ChartBundle

    return ChartBundle("graph", {}, SpaceForm.euclidean()).position_map, default_domain("graph", None, 32, 16)


def test_numeric_jets_equal_loop_reference():
    """Sharing evaluations across sums and jets across multi-indices changes
    no jet in the last bit, on a chart periodic in u only (the torus) and
    on one open in both directions (the graph)."""
    for where, (f, domain) in (("torus", (_torus_map(), _OPEN_TORUS)), ("graph", _graph_case())):
        _assert_jets_equal(numeric_jets(f, domain), _loop_numeric_jets(f, domain), where)


def test_numeric_jets_match_exact_jets():
    """Numeric jets on the torus periodic in u only, bounded at 10x the
    worst errors measured with stencils along u and v, 3.5e-11 at order
    <= 2 and 5.2e-9 at order 3."""
    domain = PatchDomain((0, 2 * np.pi), (0, 2 * np.pi), 128, 64, periodic_u=True)
    exact = sample_builtin("torus", {"R": 2.0, "a": 1.0}, domain=domain)
    numeric = sample_callable(_torus_map(), domain)
    for ab in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        err = np.max(np.abs(exact.jets[ab] - numeric.jets[ab]))
        assert err < 3.5e-10, f"jet {ab}: {err}"
    for ab in ((2, 1), (1, 2), (3, 0), (0, 3)):
        err = np.max(np.abs(exact.jets[ab] - numeric.jets[ab]))
        assert err < 5.2e-8, f"jet {ab}: {err}"


# per-order bounds of open-chart stencil jets at 128x64, 10x the measured
# worst error of the order-k partials relative to max(1, max |exact|), k =
# 1..4
STENCIL_BOUND = {
    "catenoid": (1.2e-12, 4.0e-10, 1.9e-7, 7.7e-5),
    "graph": (9.6e-13, 6.3e-10, 2.5e-7, 2.7e-4),
    "torus_band": (7.5e-13, 1.8e-10, 2.7e-8, 5.8e-6),
}


def _open_chart_errors(name):
    """{(a, b): error} of the numeric jets of a catalog chart's position map
    at 128x64 against its exact jets, relative to max(1, max |exact|), on
    the catenoid, the graph or the torus band v in [0.2, 2 pi - 0.2]."""
    from curvevar.catalog import ChartBundle

    if name == "torus_band":
        chart, domain = "torus", PatchDomain((0, 2 * np.pi), (0.2, 2 * np.pi - 0.2), 128, 64, periodic_u=True)
    else:
        chart, domain = name, default_domain(name, None, 128, 64)
    exact = sample_builtin(chart, domain=domain)
    numeric = numeric_jets(ChartBundle(chart, {}, exact.sf).position_map, domain)
    return {ab: np.max(np.abs(x - numeric[ab])) / max(1.0, np.max(np.abs(x))) for ab, x in exact.jets.items()}


@pytest.mark.parametrize("name", sorted(STENCIL_BOUND))
def test_stencil_jets_per_order_accuracy(name):
    """Numeric jets of a catalog chart's position map on an open chart
    against its exact jets, the worst partial of each order k = 1..4."""
    errs = [0.0] * 4
    for (a, b), err in _open_chart_errors(name).items():
        if a + b:
            errs[a + b - 1] = max(errs[a + b - 1], err)
    assert all(e < bound for e, bound in zip(errs, STENCIL_BOUND[name])), errs


# bounds on the order-4 partials (4, 0), (3, 1) and (2, 2) of charts
# periodic in u only at 128x64, 10x the measured errors relative to
# max(1, max |exact|): 3.5e-9 / 3.9e-9 / 5.3e-8 (catenoid) and
# 3.1e-9 / 6.0e-9 / 3.1e-8 (torus band) with spectral partials along u;
# 1.2e-7 / 7.6e-8 / 6.7e-7 and 1.5e-7 / 8.3e-8 / 5.8e-7 with the 7-point
# stencil along u as well
MIXED_BOUND = {"catenoid": (3.5e-8, 3.9e-8, 5.4e-7), "torus_band": (3.1e-8, 6.0e-8, 3.1e-7)}


@pytest.mark.parametrize("name", sorted(MIXED_BOUND))
def test_partials_along_a_periodic_u_are_spectral(name):
    """On a chart periodic in u only, the partials along u are taken
    spectrally from the stencil sums along v."""
    errs = _open_chart_errors(name)
    got = [errs[ab] for ab in ((4, 0), (3, 1), (2, 2))]
    assert all(e < bound for e, bound in zip(got, MIXED_BOUND[name])), got


def test_mixed_partial_consistency():
    """d/du of r_v and d/dv of r_u agree when both are finite-differenced."""
    domain = PatchDomain((0, 2 * np.pi), (0, 2 * np.pi), 64, 64, periodic_u=True, periodic_v=True)
    s = sample_callable(_torus_map(), domain)
    h = 1e-5
    f = _torus_map()
    UU, VV = domain.meshes()
    fd_uv = (f(UU + h, VV + h) - f(UU + h, VV - h) - f(UU - h, VV + h) + f(UU - h, VV - h)) / (4 * h * h)
    assert np.max(np.abs(s.jets[(1, 1)] - fd_uv)) < 1e-5


def test_deform_zero_is_identity(sphere):
    u = ScalarField.constant(1.0, sphere)
    d = deform_normal(sphere, u, 0.0)
    assert np.max(np.abs(d.positions - sphere.positions)) < 1e-12


def test_deform_sphere_gives_concentric_sphere(sphere):
    """Unit-speed normal flow of the unit sphere produces a concentric sphere;
    the catalog orientation (H > 0, inward normal) shrinks it for t > 0."""
    u = ScalarField.constant(1.0, sphere)
    for t in (0.1, -0.2):
        d = deform_normal(sphere, u, t)
        radii = np.linalg.norm(d.positions, axis=-1)
        assert np.max(np.abs(radii - (1.0 - t))) < 1e-10
        assert abs(area(d) - 4 * np.pi * (1.0 - t) ** 2) < 1e-8


def test_deform_geodesic_sphere_area(geo_sphere):
    """Normal flow of a geodesic sphere in S^3 stays a geodesic sphere:
    area 4 pi sin^2(a - t) with the mean-convex orientation."""
    a = np.pi / 4
    u = ScalarField.constant(1.0, geo_sphere)
    for t in (0.05, -0.1):
        d = deform_normal(geo_sphere, u, t)
        assert abs(area(d) - 4 * np.pi * np.sin(a - t) ** 2) < 1e-7
        # deformed points remain on the unit quadric
        assert np.max(d.sf.quadric_residual(d.positions)) < 1e-10


def test_deformed_metric_perturbation(torus):
    """First-order metric change under normal deformation is -2 u h."""
    from curvevar.calculus import random_smooth_field
    from curvevar.curvature import fundamental_forms

    u = random_smooth_field(torus, 3)
    t = 1e-5
    gp = fundamental_forms(deform_normal(torus, u, t)).g
    gm = fundamental_forms(deform_normal(torus, u, -t)).g
    dg = (gp - gm) / (2 * t)
    ff = fundamental_forms(torus)
    expected = -2.0 * u.values[..., None, None] * ff.h
    assert np.max(np.abs(dg - expected)) < 1e-6


def test_degenerate_immersion_rejected():
    domain = PatchDomain((-1, 1), (-1, 1), 16, 16)

    def collapse(U, V):
        return np.stack([U, U, 0 * V], axis=-1)

    with pytest.raises(DegenerateMetricError):
        sample_callable(collapse, domain)


def test_domain_validation():
    with pytest.raises(ConfigError):
        PatchDomain((0, 1), (0, 1), 4, 16)
    with pytest.raises(ConfigError):
        PatchDomain((0, 1), (0, 1), 16, 16, periodic_v=True, pole_offset=True)
    d = PatchDomain((0, 2 * np.pi), (0, np.pi), 16, 16, periodic_u=True, pole_offset=True)
    assert d.closed
    assert not PatchDomain((0, 1), (0, 1), 16, 16).closed


@pytest.mark.parametrize("axis,n", [("nu", 16.0), ("nu", 16.5), ("nv", "16"), ("nv", 16.5)])
def test_domain_refuses_non_integer_grid_counts(axis, n):
    """nu = 16.0 raised a bare TypeError (slice indices), nu = 16.5 on a
    periodic axis built 17 nodes and then refused a (17, 16, 3) map against
    (16.5, 16, 3), and nu = "16" raised a TypeError."""
    counts = {"nu": 16, "nv": 16, axis: n}
    with pytest.raises(ConfigError) as err:
        PatchDomain((0, 2 * np.pi), (0, np.pi), counts["nu"], counts["nv"], periodic_u=True, pole_offset=True)
    assert str(err.value) == f"grid counts must be integers (got {axis} = {n!r})"


def test_domain_accepts_numpy_integer_grid_counts():
    domain = PatchDomain((0, 2 * np.pi), (0, np.pi), np.int64(16), np.int32(8), periodic_u=True, pole_offset=True)
    assert domain == PatchDomain((0, 2 * np.pi), (0, np.pi), 16, 8, periodic_u=True, pole_offset=True)
    assert domain.u_nodes.shape == (16,) and domain.v_nodes.shape == (8,)


@pytest.mark.parametrize("sign", [2.0, 0.0, float("nan")])
def test_orientation_sign_must_be_plus_or_minus_one(sign, sphere):
    """orientation_sign = 2 gave the round sphere H = 2 and a Willmore
    energy of 4 x 4 pi, and 0 gave H = 0 and energy 0, with no error. Every
    constructor of a sample refuses it."""
    from dataclasses import replace

    want = f"round: orientation_sign must be +1 or -1 (got {sign!r})"
    with pytest.raises(ConfigError) as err:
        sample_callable(_round_map(3), default_domain("sphere", None, 16, 16), orientation_sign=sign, name="round")
    assert str(err.value) == want
    with pytest.raises(ConfigError) as err:
        replace(sphere, orientation_sign=sign, name="round")
    assert str(err.value) == want


def test_orientation_signs_plus_and_minus_one_are_kept(sphere):
    """+-1 and the catalog's flip still orient a sample: the two signs give
    opposite H, and the catalog torus is flipped to H > 0."""
    domain = default_domain("sphere", None, 16, 16)
    H = [curvature_scalars(sample_callable(_round_map(3), domain, orientation_sign=sign)).H for sign in (1.0, -1)]
    assert np.array_equal(H[0], -H[1]) and np.all(np.abs(H[0]) > 0.99)
    assert sample_builtin("torus").orientation_sign == -1.0 and sphere.flipped().orientation_sign == -sphere.orientation_sign


def test_a_pole_axis_needs_a_periodic_u():
    """The pole extension f(u, -v) = f(u + period/2, v) reads the longitude
    half a period away, so a pole-offset v on a chart open in u is
    refused. It used to give a pole axis differentiated by finite
    differences."""
    with pytest.raises(ConfigError, match=r"^pole_offset needs a periodic u direction$"):
        PatchDomain((0, 2 * np.pi), (0, np.pi), 16, 16, pole_offset=True)


@pytest.mark.parametrize(
    "u_range,v_range,axis,got",
    [
        ((0, 2 * np.pi), (np.pi, 0), "v", f"({np.pi}, 0)"),
        ((2 * np.pi, 0), (0, np.pi), "u", f"({2 * np.pi}, 0)"),
        ((0, 0), (0, np.pi), "u", "(0, 0)"),
        ((0, 2 * np.pi), (0, np.nan), "v", "(0, nan)"),
        ((-np.inf, 2 * np.pi), (0, np.pi), "u", "(-inf, 6.283185307179586)"),
    ],
)
def test_domain_refuses_empty_reversed_and_non_finite_ranges(u_range, v_range, axis, got):
    """A reversed range made the spacing and the weights negative: a sphere
    on v in (pi, 0) had a Willmore energy of -4 pi. A NaN range used to be
    refused only as a non-finite position partial."""
    with pytest.raises(ConfigError) as err:
        PatchDomain(u_range, v_range, 64, 32, periodic_u=True, pole_offset=True)
    assert str(err.value) == f"chart {axis}_range must be finite with lo < hi (got {axis}_range = {got})"


def test_flipped_reverses_normal(sphere):
    from curvevar.curvature import fundamental_forms, normal_jet

    flipped = sphere.flipped()
    n0 = fundamental_forms(sphere).N
    n1 = fundamental_forms(flipped).N
    assert np.max(np.abs(n0 + n1)) < 1e-12
    for a, b in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        assert np.array_equal(normal_jet(flipped).partial(a, b), -normal_jet(sphere).partial(a, b))


@pytest.mark.parametrize("name", ["torus", "geo_sphere", "h3_sphere"])
def test_deform_normal_many_matches_separate_calls(name, request):
    s = _h3_sphere() if name == "h3_sphere" else request.getfixturevalue(name)
    u = random_smooth_field(s, 5)
    h = 1e-3
    many = deform_normal_many(s, u, (h, -h, h / 2, -h / 2))
    assert list(many) == [h, -h, h / 2, -h / 2]
    for t, d in many.items():
        _assert_jets_equal(d.jets, deform_normal(s, u, t).jets, t)


def _h3_sphere_tangents(a=0.7):
    """r_u and r_v of ``_h3_sphere_map(a)``."""

    def f(U, V):
        sh, zero = np.sinh(a), np.zeros(np.shape(U))
        ru = np.stack([-sh * np.sin(V) * np.sin(U), sh * np.sin(V) * np.cos(U), zero, zero], axis=-1)
        rv = np.stack([sh * np.cos(V) * np.cos(U), sh * np.cos(V) * np.sin(U), -sh * np.sin(V), zero], axis=-1)
        return ru, rv

    return f


# worst relative error over the six jets at t = +-0.05, measured: stencil
# error of the reference on open charts 3.3e-11 (torus) and 5.0e-11 (S^3
# band); 1.4e-10 on the H^3 band, whose base sample has stencil jets
# itself; 2.5e-13 and 9.1e-13 on the closed torus and Clifford torus. The
# open-chart bounds are 10x the measured errors.
COMPOSED_BOUND = {"torus": 3.4e-10, "geo_sphere": 5e-10, "h3_sphere": 1.4e-9, "closed_torus": 5e-12, "clifford": 5e-12}


@pytest.mark.parametrize("name", ["torus", "geo_sphere", "h3_sphere", "closed_torus", "clifford"])
def test_deformed_jets_match_composed_map_jets(name):
    """The pushed-forward jets of a deformed sample match the numeric jets
    of its closed-form position map: the geodesic step from p(u, v) along
    N(u, v) by t u(u, v), with p, N and the field u in closed form. Open
    charts (the torus periodic in u only, latitude bands in S^3 and H^3)
    take stencil jets of that map, closed charts spectral jets."""
    from curvevar.catalog import ChartBundle
    from curvevar.curvature import _inverse_norm, _raw_normal

    if name == "h3_sphere":
        s = sample_callable(_h3_sphere_map(), _OPEN_BAND, sf=SpaceForm.hyperbolic(1.0))
        position, tangents = _h3_sphere_map(), _h3_sphere_tangents()
    else:
        chart, params, domain = {
            "torus": ("torus", {"R": 2.0, "a": 1.0}, _OPEN_TORUS),
            "geo_sphere": ("geodesic_sphere_S3", {"a": np.pi / 4}, _OPEN_BAND),
            "closed_torus": ("torus", {"R": 2.0, "a": 1.0}, default_domain("torus", None, 64, 32)),
            "clifford": ("clifford_torus_S3", {}, default_domain("clifford_torus_S3", None, 64, 32)),
        }[name]
        s = sample_builtin(chart, params, domain=domain)
        bundle = ChartBundle(chart, params, s.sf)
        position = bundle.position_map
        tangents = lambda U, V: bundle.evaluate(U, V, ((1, 0), (0, 1)))
    u = random_smooth_field(s, 5)

    def field(U, V):
        x = position(U, V)
        return u.c0 + x @ u.cvec + np.einsum("...i,ij,...j->...", x, u.mat, x)

    for t, d in deform_normal_many(s, u, (0.05, -0.05)).items():

        def moved(U, V):
            p = position(U, V)
            n = _raw_normal(s.sf, p, *tangents(U, V))
            n = s.orientation_sign * _inverse_norm(s.sf, n, s.name)[..., None] * n
            return s.sf.geodesic_step(p, n, t * field(U, V))

        want = numeric_jets(moved, s.domain)
        assert sorted(d.jets) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
        for ab, x in d.jets.items():
            err = np.max(np.abs(x - want[ab])) / np.max(np.abs(want[ab]))
            assert err < COMPOSED_BOUND[name], (t, ab, err)


def test_stencil_evaluation_counts():
    """The map is evaluated once at each offset, shared by every sum: the
    node alone along a periodic axis and the 7 points of the stencil along
    an open one, so 1 call on a closed chart, 7 on a chart periodic in u or
    in v only and 49 on one open in both."""
    calls = []

    def counted_map(U, V):
        calls[-1] += 1
        return _torus_map()(U, V)

    for periodic_u, periodic_v in ((True, True), (True, False), (False, True), (False, False)):
        calls.append(0)
        numeric_jets(counted_map, PatchDomain((0, 2 * np.pi), (0, 2 * np.pi), 16, 16, periodic_u=periodic_u, periodic_v=periodic_v))
    assert calls == [1, 7, 7, 49]


@pytest.mark.parametrize(
    "f,domain,sf",
    [
        (_torus_map(), PatchDomain((0, 2 * np.pi), (0, 2 * np.pi), 16, 16, periodic_u=True), SpaceForm.euclidean()),
        (_h3_sphere_map(), PatchDomain((0, 2 * np.pi), (0.3, np.pi - 0.3), 16, 16, periodic_u=True), SpaceForm.hyperbolic(1.0)),
    ],
    ids=["E3", "H3"],
)
def test_deformation_evaluates_no_position_map(f, domain, sf):
    """On a chart periodic in u only, sampling a map evaluates it at the 7
    stencil offsets along v; deforming the sample evaluates it nowhere,
    whatever the number of steps, and the deformed samples carry no
    position map."""
    calls = [0]

    def counted_map(U, V):
        calls[0] += 1
        return f(U, V)

    s = sample_callable(counted_map, domain, sf=sf)
    assert calls[0] == 7
    u = random_smooth_field(s, 2)
    for ts in ((0.01,), (0.01, -0.01, 0.005, -0.005)):
        calls[0] = 0
        deformed = deform_normal_many(s, u, ts)
        assert calls[0] == 0
        assert all(d.position_map is None for d in deformed.values())


def _round_map(components):
    """The unit sphere's position map (cos u sin v, sin u sin v, cos v, 1),
    cut to the given number of components (0: the first component alone,
    without a component axis)."""

    def f(U, V):
        x = np.stack([np.cos(U) * np.sin(V), np.sin(U) * np.sin(V), np.cos(V), np.ones(np.shape(U))], axis=-1)
        return x[..., :components] if components else x[..., 0]

    return f


@pytest.mark.parametrize("chart", ["catenoid", "sphere"])
@pytest.mark.parametrize(
    "components,sf", [(2, SpaceForm.euclidean()), (3, SpaceForm.sphere(1.0)), (0, SpaceForm.euclidean()), (4, SpaceForm.euclidean())]
)
def test_map_values_of_the_wrong_shape_are_refused(components, sf, chart):
    """A position map must return (nu, nv, ambient_dim) values, on an open
    chart and on a closed one alike; a 4th component in E^3 is not ignored."""
    domain = default_domain(chart, None, 16, 16)
    got = (16, 16, components) if components else (16, 16)
    with pytest.raises(ConfigError) as err:
        sample_callable(_round_map(components), domain, sf=sf, name="bad")
    want = (16, 16, sf.ambient_dim)
    assert str(err.value) == f"bad: the position map returned values of shape {got}, expected (nu, nv, ambient_dim) = {want}"


@pytest.mark.parametrize("ts", [(0.0, -0.0), (0.01, 0.01), (0.01, float("nan")), (float("inf"),), ()])
def test_deform_normal_many_rejects_bad_steps(ts, sphere):
    u = ScalarField.constant(1.0, sphere)
    with pytest.raises(ConfigError):
        deform_normal_many(sphere, u, ts)


def test_deform_h3_sphere_gives_concentric_sphere():
    """Unit-speed normal flow of a geodesic sphere of radius a in H^3 stays
    on the hyperboloid and gives the geodesic sphere of radius a - t, whose
    mean curvature is coth(a - t) with the mean-convex orientation."""
    a = 0.7
    s = _h3_sphere(a)
    u = ScalarField.constant(1.0, s)
    for t, d in deform_normal_many(s, u, (0.05, -0.05)).items():
        assert np.max(d.sf.quadric_residual(d.positions)) < 1e-12
        H = curvature_scalars(d).H
        assert np.max(np.abs(H - 1.0 / np.tanh(a - t))) < 1e-6, t


def test_pole_offset_needs_even_nu():
    """The pole extension pairs each longitude with its antipode, so an odd
    nu on a pole-offset chart is refused up front."""
    with pytest.raises(ConfigError, match="even nu"):
        PatchDomain((0, 2 * np.pi), (0, np.pi), 33, 16, periodic_u=True, pole_offset=True)
    with pytest.raises(ConfigError, match="even nu"):
        default_domain("sphere", None, 33, 16)
    assert not PatchDomain((0, 2 * np.pi), (0, np.pi), 33, 16, periodic_u=True).closed


@pytest.mark.parametrize(
    "name,params",
    [("torus", {"R": 2.0, "a": 1.0}), ("sphere", {"r": 1.0}), ("clifford_torus_S3", {}), ("geodesic_sphere_S3", {"a": np.pi / 4})],
)
def test_spectral_jets_match_exact_jets(name, params):
    """Closed charts: the jets of the position map sampled at the nodes
    alone match the catalog's exact jets at 128 x 64, all 15 multi-indices.
    Measured worst relative errors: order <= 2 1.2e-12, orders 3-4 4.3e-9."""
    from curvevar.surface import MULTI_INDICES

    exact = sample_builtin(name, params, domain=default_domain(name, params, 128, 64))
    numeric = sample_callable(exact.position_map, exact.domain, sf=exact.sf)
    scale0 = np.max(np.abs(exact.positions))
    for ab in MULTI_INDICES:
        scale = np.max(np.abs(exact.jets[ab])) or scale0  # a vanishing jet is judged against the positions
        err = np.max(np.abs(numeric.jets[ab] - exact.jets[ab])) / scale
        assert err < (1e-11 if sum(ab) <= 2 else 2e-8), (ab, err)


@pytest.mark.parametrize("case", ["torus", "h3_sphere"])
def test_spectral_jets_transform_each_input_once(case, monkeypatch):
    """Numeric jets on a closed chart run one forward FFT along u, and one
    along v per u-order below 4 (5 in all; one partial at a time took 14),
    the spectral-tail guard reading the first two, and equal bit for bit
    those of ChartDerivatives.partial taken one multi-index at a time."""
    from curvevar.gridops import ChartDerivatives
    from curvevar.surface import JET_ORDER, MULTI_INDICES

    if case == "torus":
        f, domain = _torus_map(), PatchDomain((0, 2 * np.pi), (0, 2 * np.pi), 64, 32, periodic_u=True, periodic_v=True)
    else:
        f, domain = _h3_sphere_map(), default_domain("sphere", None, 64, 32)
    x = np.asarray(f(*domain.meshes()), dtype=float)
    ops = ChartDerivatives(domain)
    want = {(a, b): ops.partial(ops.partial(x, a, 0), 0, b) for a, b in MULTI_INDICES}
    axes = []
    rfft = np.fft.rfft

    def counted(a, *args, **kwargs):
        axes.append(kwargs["axis"])
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    jets = numeric_jets(f, domain, case)
    assert sorted(axes) == [0] + [1] * JET_ORDER
    for ab in MULTI_INDICES:
        assert np.array_equal(jets[ab], want[ab]), ab


def test_closed_chart_jets_use_grid_values_only(torus):
    """On a closed chart, sample_callable evaluates the map once, at the
    nodes, and a deformation of it or of a catalog sample calls no
    position map at all."""
    from dataclasses import replace

    calls = [0]

    def counted(f):
        def g(U, V):
            calls[0] += 1
            return f(U, V)

        return g

    s = sample_callable(counted(_torus_map()), torus.domain)
    assert calls[0] == 1
    UU, VV = torus.domain.meshes()
    for base in (s, replace(torus, position_map=counted(torus.position_map))):
        u = ScalarField(1.0 + 0.1 * np.cos(UU) * np.sin(VV), base)
        calls[0] = 0
        deformed = deform_normal_many(base, u, (0.01, -0.01, 0.005, -0.005))
        assert calls[0] == 0
        assert all(d.position_map is None for d in deformed.values())


def test_spectral_tail_guard_refuses_aliased_jets(torus):
    """A map with a mode near the Nyquist one carries far more than 1e-20
    of its energy in the top third of the u modes (1e-31 without it); its
    jets are refused, not returned aliased."""
    from curvevar.surface import SPECTRAL_TAIL_BOUND

    assert max(spectral_tail(torus.positions, torus.domain).values()) < 1e-30
    with pytest.raises(ConfigError) as err:
        sample_callable(lambda U, V: _torus_map()(U, V) * (1 + 1e-3 * np.cos(50 * U))[..., None], torus.domain, name="bumpy")
    msg = str(err.value)
    assert "bumpy" in msg and "along u" in msg and f"{SPECTRAL_TAIL_BOUND:g}" in msg and "finer grid" in msg


def test_half_open_chart_refuses_an_unresolved_periodic_u():
    """The spectral-tail guard reads the node values along the periodic u
    of a chart open in v: a mode of the map above a third of the u modes
    is refused naming u, not differentiated into aliased partials."""
    from curvevar.surface import SPECTRAL_TAIL_BOUND

    with pytest.raises(ConfigError) as err:
        sample_callable(lambda U, V: _torus_map()(U, V) * (1 + 1e-3 * np.cos(50 * U))[..., None], _OPEN_TORUS, name="bumpy")
    assert str(err.value).startswith(f"bumpy: spectral tail ") and str(err.value).endswith(
        f" along u exceeds {SPECTRAL_TAIL_BOUND:g}, so the 32x16 grid does not resolve it and its jets would be aliased; use a finer grid"
    )


@pytest.mark.parametrize("periodic_u,node", [(True, "(17, 15)"), (False, "(16, 15)")], ids=["periodic_u", "open"])
def test_map_non_finite_off_the_nodes_is_refused_at_its_node(periodic_u, node):
    """A map finite at every node but not at a stencil offset past the top
    v node, for u > pi, is refused before any FFT, naming the first such
    node and its offset: along a periodic u an FFT would have spread the
    NaN over the whole row."""
    domain = PatchDomain((0, 2 * np.pi), (0.3, np.pi - 0.3), 32, 16, periodic_u=periodic_u)
    edge = np.pi - 0.3 + 2.5 * 2e-3 * domain.axes[1].length

    def f(U, V):
        x = _torus_map()(U, V)
        x[(V > edge) & (U > np.pi)] = np.nan
        return x

    assert np.all(np.isfinite(f(*domain.meshes())))
    with pytest.raises(ConfigError, match=rf"^edge: non-finite position at node {re.escape(node)} offset by \(.*, 0\.0152"):
        sample_callable(f, domain, name="edge")


def test_spectral_jets_refuse_non_finite_positions():
    domain = default_domain("sphere", None, 16, 16)

    def f(U, V):
        p = _h3_sphere_map()(U, V)
        p[3, 5, 0] = np.nan
        return p

    with pytest.raises(ConfigError, match=r"node \(3, 5\)"):
        sample_callable(f, domain, sf=SpaceForm.hyperbolic(1.0))


def test_open_chart_refuses_non_finite_positions():
    """A map undefined at some nodes (here u > 0.95) is refused with the
    first such node named, not sampled into a NaN energy."""
    domain = PatchDomain((-1, 1), (-1, 1), 32, 32)

    def f(U, V):
        with np.errstate(invalid="ignore"):
            return np.stack([U, V, np.sqrt(0.95 - U)], axis=-1)

    with pytest.raises(ConfigError, match=r"^callable: non-finite position at node \(31, 0\) offset by "):
        sample_callable(f, domain)


def test_open_chart_deformation_refuses_non_finite_jets():
    s = sample_builtin("catenoid", {})
    UU, _ = s.domain.meshes()
    u = ScalarField(np.where(UU > 0.5, np.nan, 1.0), s)
    with pytest.raises(ConfigError, match=r"non-finite position partial .* at node .* in catenoid\+deform at t = 0.01"):
        deform_normal(s, u, 0.01)


def test_pole_offset_chart_must_end_at_poles():
    """A lat-long v range short of the poles has no smooth pole extension;
    the refusal says so instead of asking for a finer grid."""
    domain = PatchDomain((0, 2 * np.pi), (0.1, 3.0), 64, 32, periodic_u=True, pole_offset=True)

    def sphere_map(U, V):
        return np.stack([np.sin(V) * np.cos(U), np.sin(V) * np.sin(U), np.cos(V)], axis=-1)

    with pytest.raises(ConfigError, match=r"along v .* both ends of v_range = \(0\.1, 3\.0\) must be poles of the chart"):
        sample_callable(sphere_map, domain)
    full = PatchDomain((0, 2 * np.pi), (0, np.pi), 64, 32, periodic_u=True, pole_offset=True)
    assert sample_callable(sphere_map, full).domain is full


@pytest.mark.parametrize(
    "name,params,key,t",
    [
        ("sphere", {"r": 1.0}, "r", 0.1),
        ("sphere", {"r": 1.0}, "r", -0.1),
        ("geodesic_sphere_S3", {"a": np.pi / 4}, "a", 0.1),
        ("geodesic_sphere_S3", {"a": np.pi / 4}, "a", -0.1),
    ],
)
def test_concentric_sphere_deformations_match_catalog_jets(name, params, key, t):
    """Unit-speed normal flow of a round sphere in E^3, or of a geodesic
    sphere in S^3, by t gives the catalog sphere of radius r - t (a - t) on
    all six jets. Measured worst relative error: 1.6e-13 (E^3), 1.9e-13
    (S^3)."""
    s = sample_builtin(name, params)
    d = deform_normal(s, ScalarField.constant(1.0, s), t)
    want = sample_builtin(name, {key: params[key] - t})
    assert d.jet_order == 2
    for ab, x in d.jets.items():
        err = np.max(np.abs(x - want.jets[ab])) / np.max(np.abs(want.jets[ab]))
        assert err < 1e-12, (ab, err)


def test_order3_consumers_refuse_deformed_samples(torus):
    """A deformed sample carries jets to order 2 only: what needs order 3
    or 4 is refused with the sample named, while everything built on g, h
    and N works."""
    from curvevar import codazzi_residual, intrinsic_gauss_curvature
    from curvevar.curvature import curvature_jets, fundamental_forms, normal_jet, shape_operator_derivatives

    u = random_smooth_field(torus, 4)
    d = deform_normal(torus, u, 0.01)
    for consumer in (curvature_jets, shape_operator_derivatives, codazzi_residual, intrinsic_gauss_curvature, normal_jet):
        with pytest.raises(ConfigError, match=r"needs immersion jets to order [34], but torus\+deform carries them to order 2"):
            consumer(d)
    with pytest.raises(ConfigError, match=r"deform_normal needs .* torus\+deform"):
        deform_normal(d, u, 0.01)
    assert np.all(np.isfinite(curvature_scalars(d).H)) and np.all(np.isfinite(fundamental_forms(d).christoffel))


@pytest.mark.parametrize("name", ["sphere", "torus", "catenoid", "graph", "geodesic_sphere_S3", "clifford_torus_S3"])
def test_fundamental_forms_read_order2_jets_only(name):
    """g and the first-kind Christoffel symbols come from the order <= 2
    jets: g equals the order-2 Taylor jets of the metric bit for bit, and
    Gamma_l,ab is the inner product <r_ab, r_l> of two of those jets."""
    from curvevar.curvature import _metric_jets, fundamental_forms

    s = sample_builtin(name, {}, domain=default_domain(name, {}, 32, 16))
    ff, j = fundamental_forms(s), s.jets
    for (i, k), x in zip(((0, 0), (0, 1), (1, 1)), _metric_jets(s)):
        for a, b in ((i, k), (k, i)):
            assert np.array_equal(ff.g[..., a, b], x.value)
            r_ab = j[(2 - a - b, a + b)]  # r_uu, r_uv or r_vv
            for l, e in enumerate(((1, 0), (0, 1))):
                assert np.array_equal(ff.christoffel[..., l, a, b], s.sf.flat_inner(r_ab, j[e]))


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "h3_sphere"])
def test_christoffel_symbols_are_half_the_metric_derivative_combination(name):
    """Gamma_l,ab = <r_ab, r_l> equals 1/2 (d_a g_bl + d_b g_al - d_l g_ab)
    with the metric derivatives read from the order-2 metric jets, to
    1e-14 of max(|Gamma|, 1), on the six catalog charts and the numeric-jet
    H^3 sphere: the identity is exact for a flat ambient inner product."""
    from curvevar.curvature import _metric_jets, fundamental_forms

    s = _h3_sphere(nu=32, nv=16) if name == "h3_sphere" else sample_builtin(name, {}, domain=default_domain(name, {}, 32, 16))
    jets = dict(zip(((0, 0), (0, 1), (1, 1)), _metric_jets(s)))

    def dg(k, a, b):  # d_k g_ab
        return jets[(min(a, b), max(a, b))].partial(*((1, 0), (0, 1))[k])

    got = fundamental_forms(s).christoffel
    for l in range(2):
        for a in range(2):
            for b in range(2):
                want = 0.5 * (dg(a, b, l) + dg(b, a, l) - dg(l, a, b))
                assert np.max(np.abs(got[..., l, a, b] - want)) <= 1e-14 * max(np.max(np.abs(want)), 1.0), (l, a, b)


def test_catalog_pole_offset_domain_must_end_at_poles():
    """A catalog chart on a pole-offset domain whose v ends are circles,
    not poles, is refused naming v_range (its exact jets would otherwise
    give the area 12.4571 for 12.4721 on the sphere); the full range is
    accepted."""
    short = PatchDomain((0, 2 * np.pi), (0.1, 3.0), 64, 32, periodic_u=True, pole_offset=True)
    with pytest.raises(ConfigError, match=r"sphere: .*v_range = \(0\.1, 3\.0\).* v = 0\.1 "):
        sample_builtin("sphere", domain=short)
    with pytest.raises(ConfigError, match=r"torus: .*v_range"):
        sample_builtin("torus", domain=PatchDomain((0, 2 * np.pi), (0, np.pi), 64, 32, periodic_u=True, pole_offset=True))
    full = PatchDomain((0, 2 * np.pi), (0, np.pi), 64, 32, periodic_u=True, pole_offset=True)
    assert abs(area(sample_builtin("sphere", domain=full)) - 4 * np.pi) < 1e-12
    assert abs(area(sample_builtin("geodesic_sphere_S3", {"a": 1.0}, domain=full)) - 4 * np.pi * np.sin(1.0) ** 2) < 1e-12


def test_graph_coefficients_must_be_numbers():
    with pytest.raises(ConfigError, match=r"^graph parameter 'coeffs' must be a number \(got 'x'\)$"):
        sample_builtin("graph", {"coeffs": {(2, 0): 1.0, (0, 2): "x"}})


def test_fields_stay_on_their_chart_grid(torus, sphere):
    """The torus and the sphere share a 128 x 64 grid but not a chart: a
    field on one does not deform the other, since its partials belong to
    its own chart."""
    u = random_smooth_field(torus, 3)
    with pytest.raises(ConfigError, match="chart grid of torus, not on that of sphere"):
        deform_normal(sphere, u, 0.01)


def test_degenerate_catalog_domain_names_the_node():
    """A catalog sample is checked like any other: the sphere chart on a
    v grid that includes both poles has g = 0 there, and the refusal names
    the first pole node and the surface instead of dividing by zero."""
    domain = PatchDomain((0, 2 * np.pi), (0, np.pi), 16, 16, periodic_u=True)
    with pytest.raises(DegenerateMetricError, match=r"degenerate metric at node \(0, 0\) in sphere$") as err:
        sample_builtin("sphere", domain=domain)
    assert err.value.node == (0, 0)


def test_deformed_sample_builds_its_metric_once(torus, monkeypatch):
    """Checking a deformed sample builds its fundamental forms, which stay
    cached: reading its curvature afterwards computes g no second time."""
    import curvevar.curvature

    calls = []
    metric = curvevar.curvature._metric

    def counting(sf, ru, rv):
        calls.append("jet" if isinstance(ru, curvevar.curvature.Taylor2) else "grid")
        return metric(sf, ru, rv)

    monkeypatch.setattr(curvevar.curvature, "_metric", counting)
    d = deform_normal(torus, random_smooth_field(torus, 4), 0.01)
    curvature_scalars(d)
    assert calls == ["grid"]


def test_catalog_samples_build_no_curvature_jets():
    """The orientation is read from the H values of the forms; curvature
    jets are built only when something reads them."""
    from curvevar import functional_value
    from curvevar.curvature import curvature_jets
    from curvevar.densities import willmore

    for name in ("sphere", "torus"):
        s = sample_builtin(name, {}, domain=default_domain(name, {}, 32, 16))
        functional_value(s, willmore())
        assert "curvature_jets" not in s._cache
        H, _ = curvature_jets(s)
        assert np.max(np.abs(H.value - curvature_scalars(s).H)) < 1e-12


@pytest.mark.parametrize(
    "name,params,sign",
    [
        ("torus", {}, -1.0),
        ("sphere", {}, 1.0),
        ("catenoid", {}, 1.0),
        ("graph", {}, 1.0),
        ("geodesic_sphere_S3", {}, 1.0),
        ("clifford_torus_S3", {}, 1.0),
        ("graph", {"coeffs": {(2, 0): -1.0, (0, 2): -1.0}}, -1.0),
    ],
)
def test_catalog_orientation(name, params, sign):
    """Each catalog sample is oriented so that H > 0 at the node where |H|
    is largest, unless the surface is minimal there (catenoid, Clifford
    torus), and its cached forms carry that orientation."""
    s = sample_builtin(name, params)
    assert s.orientation_sign == sign
    H = curvature_scalars(s).H
    assert H.flat[np.argmax(np.abs(H))] >= -1e-9


def test_flipped_catalog_sample_keeps_its_orientation_free_forms():
    """A flipped sample starts with an empty cache and builds its forms
    again; every sign flip is exact, so on the six catalog charts and the
    numeric-jet H^3 sphere its g, g^-1, dS, Christoffel symbols, K_E and K
    equal the original's bit for bit, and its N, h, H, normal jet and H jet
    are their negations."""
    from curvevar.curvature import curvature_jets, fundamental_forms, normal_jet

    for name in (*CATALOG_NAMES, "h3_sphere"):
        s = _h3_sphere(nu=32, nv=16) if name == "h3_sphere" else sample_builtin(name)
        flipped = s.flipped()
        assert flipped.orientation_sign == -s.orientation_sign and flipped.jets is s.jets and not flipped._cache
        ff, ff_flipped = fundamental_forms(s), fundamental_forms(flipped)
        cs, cs_flipped = curvature_scalars(s), curvature_scalars(flipped)
        for attr in ("g", "g_inv", "dS_weight", "christoffel"):
            assert np.array_equal(getattr(ff, attr), getattr(ff_flipped, attr)), (name, attr)
        for attr in ("K_E", "K"):
            assert np.array_equal(getattr(cs, attr), getattr(cs_flipped, attr)), (name, attr)
        pairs = [(ff.N, ff_flipped.N), (ff.h, ff_flipped.h), (cs.H, cs_flipped.H)]
        pairs += zip(normal_jet(s).parts, normal_jet(flipped).parts)
        pairs += zip(curvature_jets(s)[0].parts, curvature_jets(flipped)[0].parts)
        for x, y in pairs:
            assert np.array_equal(x, -y), name


def _planes_contiguous(x) -> bool:
    """True when every component x[..., k] of a (..., k) array is one
    contiguous grid plane (the component-major layout)."""
    return all(x[..., k].flags.c_contiguous for k in range(x.shape[-1]))


@pytest.mark.parametrize("case", ["catalog", "spectral", "stencil", "deformed_E3", "deformed_S3", "deformed_H3"])
def test_vector_jets_are_laid_out_component_major(case, torus, clifford):
    """Catalog, spectral, stencil and deformed jets and the unit normal of
    the forms keep each ambient component in one contiguous grid plane."""
    from curvevar.curvature import fundamental_forms, normal_jet

    if case == "catalog":
        s = sample_builtin("geodesic_sphere_S3", {}, domain=default_domain("geodesic_sphere_S3", {}, 32, 16))
    elif case == "spectral":
        s = _h3_sphere(nu=32, nv=16)
    elif case == "stencil":
        s = sample_callable(_torus_map(), PatchDomain((0.0, 1.0), (0.0, 1.0), 16, 16))
    else:
        base = {"deformed_E3": torus, "deformed_S3": clifford, "deformed_H3": _h3_sphere(nu=32, nv=16)}[case]
        s = deform_normal(base, random_smooth_field(base, 3), 0.01)
    arrays = {**{f"jet {ab}": x for ab, x in s.jets.items()}, "N": fundamental_forms(s).N}
    if s.jet_order >= 3:
        arrays.update({f"normal jet {i}": x for i, x in enumerate(normal_jet(s).parts)})
    bad = [name for name, x in arrays.items() if not _planes_contiguous(x)]
    assert not bad


def _entries_contiguous(x, entry_axes: int) -> bool:
    """True when every entry of the trailing ``entry_axes`` axes of x
    (x[..., i, j] of a 2x2 block) is one contiguous grid plane (the
    entry-major layout)."""
    return all(x[(...,) + idx].flags.c_contiguous for idx in np.ndindex(*x.shape[-entry_axes:]))


@pytest.mark.parametrize(
    "case", ["catalog_E3", "catalog_S3", "spectral", "stencil", "deformed_E3", "deformed_S3", "deformed_H3"]
)
def test_per_node_tensors_are_laid_out_entry_major(case, torus, clifford):
    """The fundamental forms, the Christoffel symbols, g^-1 h, Hessians,
    symmetric tensors and gradients keep each entry in one contiguous grid
    plane on catalog, spectral, stencil and deformed samples."""
    from curvevar.calculus import grad_lower, gradient, h_squared, hessian, shape_tensor
    from curvevar.curvature import _MAT_MUL, fundamental_forms

    if case == "catalog_E3":
        s = torus
    elif case == "catalog_S3":
        s = sample_builtin("geodesic_sphere_S3", {}, domain=default_domain("geodesic_sphere_S3", {}, 32, 16))
    elif case == "spectral":
        s = _h3_sphere(nu=32, nv=16)
    elif case == "stencil":
        s = sample_callable(_torus_map(), PatchDomain((0.0, 1.0), (0.0, 1.0), 16, 16))
    else:
        base = {"deformed_E3": torus, "deformed_S3": clifford, "deformed_H3": _h3_sphere(nu=32, nv=16)}[case]
        s = deform_normal(base, random_smooth_field(base, 3), 0.01)
    ff, f = fundamental_forms(s), random_smooth_field(s, 4)
    arrays = {
        "g": (ff.g, 2),
        "g_inv": (ff.g_inv, 2),
        "h": (ff.h, 2),
        "christoffel": (ff.christoffel, 3),
        "g_inv h": (_MAT_MUL(ff.g_inv, ff.h), 2),
        "hessian": (hessian(f, s).comps, 2),
        "shape_tensor": (shape_tensor(s).comps, 2),
        "h_squared": (h_squared(s).comps, 2),
        "grad_lower": (grad_lower(f, s), 1),
        "gradient": (gradient(f, s), 1),
    }
    bad = [name for name, (x, n) in arrays.items() if not _entries_contiguous(x, n)]
    assert not bad


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "h3_sphere"])
def test_jet_values_equal_the_grid_values(name):
    """g, N, h, H and K_E have one formula each, run on grid values by the
    forms and scalars and on Taylor jets by the metric, normal and
    curvature jets: the value part of every jet equals its grid value bit
    for bit, on the six catalog charts at their default grids and on the
    numeric-jet H^3 sphere (flipped to H > 0). h is <N, r_ab> on both
    routes, the jets' from the cached unit-normal jet."""
    from curvevar.curvature import Taylor2, _metric_jets, _second_form, curvature_jets, fundamental_forms, normal_jet

    s = _h3_sphere() if name == "h3_sphere" else sample_builtin(name)
    ff, cs = fundamental_forms(s), curvature_scalars(s)
    entries = ((0, 0), (0, 1), (1, 1))
    for (i, j), x in zip(entries, _metric_jets(s)):
        assert np.array_equal(x.value, ff.g[..., i, j]), (i, j)
    assert np.array_equal(normal_jet(s).value, ff.N)
    r2 = (Taylor2.from_jets(s.jets, ab) for ab in ((2, 0), (1, 1), (0, 2)))
    for (i, j), x in zip(entries, _second_form(s.sf, normal_jet(s), *r2)):
        assert np.array_equal(x.value, ff.h[..., i, j]), (i, j)
    H, K_E = curvature_jets(s)
    assert np.array_equal(H.value, cs.H) and np.array_equal(K_E.value, cs.K_E)


def test_normal_jet_is_built_once_per_orientation(geo_sphere):
    """A sample caches one unit-normal jet, which every reader shares. A
    flipped sample builds its own on first read, and its N, jet and grid
    value alike, is the negation of the original bit for bit."""
    import dataclasses

    from curvevar.curvature import fundamental_forms, normal_jet

    N = normal_jet(geo_sphere)
    assert normal_jet(geo_sphere) is N
    flipped = geo_sphere.flipped()
    assert normal_jet(flipped) is not N
    for x, y in zip(normal_jet(flipped).parts, N.parts):
        assert np.array_equal(x, -y)
    fresh = dataclasses.replace(flipped)
    assert np.array_equal(fundamental_forms(fresh).N, -fundamental_forms(geo_sphere).N)


def test_a_replaced_sample_builds_its_own_forms(torus):
    """``dataclasses.replace`` gives the new sample an empty cache. When
    the cache was handed on, the flipped copy reported the unflipped N and
    H, and a copy with doubled jets the old area weight."""
    import dataclasses

    from curvevar.curvature import fundamental_forms

    ff, H = fundamental_forms(torus), curvature_scalars(torus).H
    flipped = dataclasses.replace(torus, orientation_sign=-torus.orientation_sign)
    assert np.array_equal(fundamental_forms(flipped).N, -ff.N)
    assert np.array_equal(curvature_scalars(flipped).H, -H)
    doubled = dataclasses.replace(torus, jets={ab: 2.0 * x for ab, x in torus.jets.items()})
    assert np.allclose(fundamental_forms(doubled).dS_weight, 4.0 * ff.dS_weight, rtol=1e-14, atol=0)


# peak traced memory of normal_jet, then curvature_jets, on
# geodesic_sphere_S3 at 64x32 with the forms built and the normal jet held.
# Measured: 1.49e6 B with one cached unit-normal jet; 1.98e6 B when the
# sample cached the raw normal n and 1/|n| and normal_jet built N on each call
NORMAL_AND_CURVATURE_JETS_PEAK_BOUND = 1.6e6


def test_normal_and_curvature_jets_peak_memory():
    import tracemalloc

    from curvevar.curvature import curvature_jets, fundamental_forms, normal_jet

    s = sample_builtin("geodesic_sphere_S3", {}, domain=default_domain("geodesic_sphere_S3", {}, 64, 32))
    fundamental_forms(s)
    tracemalloc.start()
    try:
        N = normal_jet(s)
        H, K_E = curvature_jets(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert N.value.shape == (64, 32, 4) and H.value.shape == K_E.value.shape == (64, 32)
    assert peak < NORMAL_AND_CURVATURE_JETS_PEAK_BOUND, peak


def test_positions_off_the_model_quadric_are_refused():
    """The unit sphere in the t = 0 slice of Minkowski R^4 is no surface of
    the hyperboloid: its normal has <n, n> < 0. It is refused naming the
    node, where a modulus under the root used to accept it with H = 0."""
    domain = default_domain("sphere", None, 32, 16)

    def f(U, V):
        return np.stack([np.sin(V) * np.cos(U), np.sin(V) * np.sin(U), np.cos(V), np.zeros(np.shape(U))], axis=-1)

    with pytest.raises(ConfigError, match=r"slice: the normal has <n, n> <= 0 at node \(0, 0\)"):
        sample_callable(f, domain, sf=SpaceForm.hyperbolic(1.0), name="slice")


def _same_bytes(x, y) -> bool:
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _moved_reference(s, u, t):
    """The deformed jets as whole-jet Taylor arithmetic: p + t u N in E^3,
    cos_t p + rho sin_t N in S^3 and H^3, each sum and scaling a new jet."""
    from curvevar.curvature import Taylor2, normal_jet
    from curvevar.spaceform import Model

    sf, uj = s.sf, u.taylor()
    p, n = Taylor2.from_jets(s.jets), normal_jet(s)
    if sf.model is Model.EUCLIDEAN:
        return p + t * uj.times_vector(n)
    theta = (t / sf.radius) * uj
    th = theta.value
    if sf.model is Model.SPHERE:
        c, sn, sign = np.cos(th), np.sin(th), -1.0
    else:
        c, sn, sign = np.cosh(th), np.sinh(th), 1.0
    cos_t = theta.compose(c, sign * sn, sign * c)
    sin_t = theta.compose(sn, c, sign * sn)
    return cos_t.times_vector(p) + sf.radius * sin_t.times_vector(n)


@pytest.mark.parametrize("name", ["torus", "geo_sphere", "clifford", "h3_sphere"])
def test_deformed_jets_are_byte_identical_to_whole_jet_arithmetic(name, request):
    """Each deformation step builds its jets once and adds into them in
    place; they equal the whole-jet expression byte for byte in E^3, S^3
    and H^3, and no two steps share an array."""
    from curvevar.curvature import TAYLOR_INDICES

    s = _h3_sphere(nu=32, nv=16) if name == "h3_sphere" else request.getfixturevalue(name)
    u = random_smooth_field(s, 5)
    many = deform_normal_many(s, u, (1e-3, -1e-3))
    for t, d in many.items():
        want = dict(zip(TAYLOR_INDICES, _moved_reference(s, u, t).parts))
        assert d.jets.keys() == want.keys()
        for ab, x in want.items():
            assert _same_bytes(d.jets[ab], x), (t, ab)
    a, b = (d.jets[(0, 0)] for d in many.values())
    assert not np.shares_memory(a, b)


# peak traced memory of one deform_normal step at 64x32, the base sample's
# normal jet already cached. Measured with each step's jets built in place:
# 0.94e6 B on geodesic_sphere_S3 and 0.96e6 B on the torus with the unit-normal
# jet cached; 1.34e6 B and 1.02e6 B when each step built N from cached n and
# 1/|n|; 1.94e6 B and 1.32e6 B when, besides, the S^3 step summed whole
# temporary jets (cos_t p, sin_t N, rho sin_t N and their sum) and the E^3
# step kept N beside u N
DEFORM_STEP_PEAK_BOUND = {"geodesic_sphere_S3": 1.5e6, "torus": 1.15e6}


@pytest.mark.parametrize("name", sorted(DEFORM_STEP_PEAK_BOUND))
def test_deform_normal_step_peak_memory(name):
    import tracemalloc

    s = sample_builtin(name, {}, domain=default_domain(name, {}, 64, 32))
    u = random_smooth_field(s, 3)
    deform_normal(s, u, 0.01)  # builds the base sample's normal jet, which it keeps
    tracemalloc.start()
    try:
        d = deform_normal(s, u, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.jets[(0, 0)].shape == (64, 32, s.ambient_dim)
    assert peak < DEFORM_STEP_PEAK_BOUND[name], peak


def _catalog_reference(bundle, U, V, ab):
    """Catalog jet d^a_u d^b_v r as whole-array sums: each component the
    left-to-right sum of its terms, stacked on a trailing axis."""
    from curvevar.catalog import _factor_values

    shape = np.broadcast(U, V).shape
    comps = []
    for k in range(bundle.dim):
        acc = None
        for comp, fu, fv, coef in bundle.plans[ab]:
            if comp != k:
                continue
            arrays = [_factor_values(f, X) for f, X in ((fu, U), (fv, V)) if f]
            if not arrays:
                term = np.full(shape, coef)
            else:
                term = arrays[0] if coef == 1.0 else coef * arrays[0]
                for x in arrays[1:]:
                    term = term * x
            acc = term if acc is None else acc + term
        comps.append(np.zeros(shape) if acc is None else np.broadcast_to(acc, shape))
    return np.stack(comps, axis=-1)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_jets_are_byte_identical_to_whole_array_sums(name):
    """Catalog jets are written into their component planes term by term;
    they equal the whole-array sums byte for byte, on the chart grid and
    at broadcast points."""
    from curvevar.catalog import _bundle
    from curvevar.surface import MULTI_INDICES

    s = sample_builtin(name, {}, domain=default_domain(name, {}, 32, 16))
    bundle = _bundle(name, (), s.sf)
    U, V = s.domain.meshes()
    for ab in MULTI_INDICES:
        assert _same_bytes(s.jets[ab], _catalog_reference(bundle, U, V, ab)), ab
    u, v = s.domain.u_nodes[:, None], s.domain.v_nodes[None, :5]
    assert _same_bytes(bundle.position_map(u, v), _catalog_reference(bundle, u, v, (0, 0)))


def test_catalog_s3_charts_lie_on_the_sphere_of_radius_rho():
    """The sample's space form is built from rho itself and keys the chart,
    so the chart lies on the sphere of radius rho exactly; keyed by k0 and
    rebuilt from it, rho = 0.7 gave radius 0.6999999999999998."""
    import math

    s = sample_builtin("clifford_torus_S3", {"rho": 0.7})
    assert s.sf.radius == 0.7
    assert s.positions[0, 0, 0] == 0.7 / math.sqrt(2.0)


def test_s3_normal_table_is_built_once_per_space_form(monkeypatch):
    """The table of the 4-d normal (``_normal_from_minors``) is built on
    the space form's first use and kept: the forms and normal jets of an
    S^3 sample, and the forms of a sample deformed from it, build it once
    between them."""
    import curvevar.surface
    from curvevar.curvature import curvature_jets

    calls = []
    build = curvevar.surface._normal_from_minors

    def counting(signs):
        calls.append(tuple(signs))
        return build(signs)

    monkeypatch.setattr(curvevar.surface, "_normal_from_minors", counting)
    s = sample_builtin("geodesic_sphere_S3", {}, domain=default_domain("geodesic_sphere_S3", {}, 32, 16))
    d = deform_normal(s, random_smooth_field(s, 3), 0.01)
    curvature_jets(s)
    assert d.sf is s.sf and calls == [(1.0, 1.0, 1.0, 1.0)]
