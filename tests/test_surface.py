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
from curvevar.errors import ConfigError, DegenerateMetricError
from curvevar.surface import induced_metric, numeric_jets, spectral_tail


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
    """Reference numeric jets: all 49 offsets of the 7x7 stencil union
    evaluated up front, then each finite-difference sum formed on its own."""
    from curvevar.gridops import fd_weights
    from curvevar.surface import MULTI_INDICES

    UU, VV = domain.meshes()
    h = 1e-3 * domain.extent
    steps = [h, h / 2.0]
    offs = sorted({i * s for s in steps for i in range(-2, 3)})
    evals = {(du, dv): np.asarray(f(UU + du, VV + dv), dtype=float) for du in offs for dv in offs}

    def raw(a, b, step):
        w = {m: fd_weights(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * step, m) for m in range(5)}
        acc = 0.0
        for i in range(-2, 3) if a > 0 else [0]:
            wi = w[a][i + 2] if a > 0 else 1.0
            for j in range(-2, 3) if b > 0 else [0]:
                wj = w[b][j + 2] if b > 0 else 1.0
                acc = acc + wi * wj * evals[(i * step, j * step)]
        return acc

    jets = {(0, 0): evals[(0.0, 0.0)]}
    for a, b in MULTI_INDICES[1:]:
        d1 = raw(a, b, steps[0])
        fac = 2.0 ** min(4 if k <= 2 else 2 for k in (a, b) if k > 0)
        jets[(a, b)] = (fac * raw(a, b, steps[1]) - d1) / (fac - 1.0)
    return jets


def _assert_jets_equal(got, want, where=""):
    assert got.keys() == want.keys()
    for ab in want:
        assert np.array_equal(got[ab], want[ab]), (where, ab)


# open charts keep stencil jets: the torus map periodic in u only, and the
# sphere charts on a latitude band without pole offset
_OPEN_TORUS = PatchDomain((0, 2 * np.pi), (0, 2 * np.pi), 32, 16, periodic_u=True)
_OPEN_BAND = PatchDomain((0, 2 * np.pi), (0.3, np.pi - 0.3), 32, 16, periodic_u=True)


def test_numeric_jets_equal_loop_reference():
    """Sharing evaluations across sums changes no jet in the last bit."""
    _assert_jets_equal(numeric_jets(_torus_map(), _OPEN_TORUS), _loop_numeric_jets(_torus_map(), _OPEN_TORUS))


def test_numeric_jets_match_exact_jets():
    """Stencil jets on an open chart (the torus periodic in u only)."""
    domain = PatchDomain((0, 2 * np.pi), (0, 2 * np.pi), 128, 64, periodic_u=True)
    exact = sample_builtin("torus", {"R": 2.0, "a": 1.0}, domain=domain)
    numeric = sample_callable(_torus_map(), domain)
    for ab in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        err = np.max(np.abs(exact.jets[ab] - numeric.jets[ab]))
        assert err < 1e-9, f"jet {ab}: {err}"
    for ab in ((2, 1), (1, 2), (3, 0), (0, 3)):
        err = np.max(np.abs(exact.jets[ab] - numeric.jets[ab]))
        assert err < 1e-6, f"jet {ab}: {err}"


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
    gp = induced_metric(deform_normal(torus, u, t))
    gm = induced_metric(deform_normal(torus, u, -t))
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
# error of the reference on open charts 2.3e-10 (torus) and 1.2e-10 (S^3
# band); 2.0e-9 on the H^3 band, whose base sample has stencil jets itself;
# 2.5e-13 and 9.1e-13 on the closed torus and Clifford torus
COMPOSED_BOUND = {"torus": 1e-9, "geo_sphere": 1e-9, "h3_sphere": 1e-8, "closed_torus": 5e-12, "clifford": 5e-12}


@pytest.mark.parametrize("name", ["torus", "geo_sphere", "h3_sphere", "closed_torus", "clifford"])
def test_deformed_jets_match_composed_map_jets(name):
    """The pushed-forward jets of a deformed sample match the numeric jets
    of its closed-form position map: the geodesic step from p(u, v) along
    N(u, v) by t u(u, v), with p, N and the field u in closed form. Open
    charts (the torus periodic in u only, latitude bands in S^3 and H^3)
    take stencil jets of that map, closed charts spectral jets."""
    from curvevar.catalog import ChartBundle
    from curvevar.surface import _eps_normal

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
            n = s.orientation_sign * _eps_normal(s.sf, p, *tangents(U, V))
            return s.sf.geodesic_step(p, n, t * field(U, V))

        want = numeric_jets(moved, s.domain)
        assert sorted(d.jets) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
        for ab, x in d.jets.items():
            err = np.max(np.abs(x - want[ab])) / np.max(np.abs(want[ab]))
            assert err < COMPOSED_BOUND[name], (t, ab, err)


def test_stencil_evaluation_counts():
    """One evaluation per used stencil offset, shared by both steps."""
    domain = PatchDomain((0, 2 * np.pi), (0, 2 * np.pi), 16, 16, periodic_u=True)
    calls = {"map": 0}

    def counted_map(U, V):
        calls["map"] += 1
        return _torus_map()(U, V)

    numeric_jets(counted_map, domain)
    assert calls["map"] == 41


@pytest.mark.parametrize(
    "f,domain,sf",
    [
        (_torus_map(), PatchDomain((0, 2 * np.pi), (0, 2 * np.pi), 16, 16, periodic_u=True), SpaceForm.euclidean()),
        (_h3_sphere_map(), PatchDomain((0, 2 * np.pi), (0.3, np.pi - 0.3), 16, 16, periodic_u=True), SpaceForm.hyperbolic(1.0)),
    ],
    ids=["E3", "H3"],
)
def test_deformation_evaluates_no_position_map(f, domain, sf):
    """On an open chart, sampling a map evaluates it at the 41 stencil
    offsets; deforming the sample evaluates it nowhere, whatever the number
    of steps, and the deformed samples carry no position map."""
    calls = [0]

    def counted_map(U, V):
        calls[0] += 1
        return f(U, V)

    s = sample_callable(counted_map, domain, sf=sf)
    assert calls[0] == 41
    u = random_smooth_field(s, 2)
    for ts in ((0.01,), (0.01, -0.01, 0.005, -0.005)):
        calls[0] = 0
        deformed = deform_normal_many(s, u, ts)
        assert calls[0] == 0
        assert all(d.position_map is None for d in deformed.values())


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
    """A spectral jet build runs one forward FFT along u, and one along v
    per u-order below 4 (5 in all; one partial at a time took 14), and its
    jets equal bit for bit those of ChartDerivatives.partial taken one
    multi-index at a time."""
    from curvevar import surface
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
    monkeypatch.setattr(surface, "spectral_tail", lambda values, domain: {})  # it transforms the positions too
    jets = surface._spectral_jets(x, ops, case)
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

    with pytest.raises(ConfigError, match=r"non-finite position partial \(0, 0\) at node \(31, 0\) in callable"):
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
        deform_normal(d, u.with_sample(d), 0.01)
    assert np.all(np.isfinite(curvature_scalars(d).H)) and np.all(np.isfinite(fundamental_forms(d).gamma))


@pytest.mark.parametrize("name", ["sphere", "torus", "catenoid", "graph", "geodesic_sphere_S3", "clifford_torus_S3"])
def test_fundamental_forms_read_order2_jets_only(name):
    """g and its first partials come from the order <= 2 jets; they equal
    the order-2 Taylor jets of the metric bit for bit."""
    from curvevar.curvature import _metric_jets, fundamental_forms

    s = sample_builtin(name, {}, domain=default_domain(name, {}, 32, 16))
    ff = fundamental_forms(s)
    for (i, j), x in zip(((0, 0), (0, 1), (1, 1)), _metric_jets(s)):
        for a, b in ((i, j), (j, i)):
            assert np.array_equal(ff.g[..., a, b], x.value)
            assert np.array_equal(ff.dg[..., 0, a, b], x.partial(1, 0))
            assert np.array_equal(ff.dg[..., 1, a, b], x.partial(0, 1))


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


def test_fields_stay_on_their_chart_grid(torus, sphere):
    """The torus and the sphere share a 128 x 64 grid but not a chart: a
    field on one neither deforms the other nor rebinds to it, since its
    partials belong to its own chart."""
    u = random_smooth_field(torus, 3)
    with pytest.raises(ConfigError, match="chart grid of torus, not on that of sphere"):
        deform_normal(sphere, u, 0.01)
    with pytest.raises(ConfigError, match="different chart grids"):
        u.with_sample(sphere)
