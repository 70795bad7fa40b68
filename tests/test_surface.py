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
from curvevar.surface import induced_metric, numeric_jets


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
    flipped = sphere.flipped()
    UU, VV = sphere.domain.meshes()
    n0 = sphere.normal_at(UU, VV)
    n1 = flipped.normal_at(UU, VV)
    assert np.max(np.abs(n0 + n1)) < 1e-12


@pytest.mark.parametrize("name", ["torus", "geo_sphere", "h3_sphere"])
def test_deform_normal_many_matches_separate_calls(name, request):
    s = _h3_sphere() if name == "h3_sphere" else request.getfixturevalue(name)
    u = random_smooth_field(s, 5)
    h = 1e-3
    many = deform_normal_many(s, u, (h, -h, h / 2, -h / 2))
    assert list(many) == [h, -h, h / 2, -h / 2]
    for t, d in many.items():
        _assert_jets_equal(d.jets, deform_normal(s, u, t).jets, t)


@pytest.mark.parametrize("name", ["torus", "geo_sphere", "h3_sphere"])
def test_open_chart_deformations_equal_loop_reference(name):
    """On an open chart, each deformed sample's jets equal the stencil jets
    of its deformed position map taken on their own, in the last bit."""
    if name == "torus":
        s = sample_builtin("torus", {"R": 2.0, "a": 1.0}, domain=_OPEN_TORUS)
    elif name == "geo_sphere":
        s = sample_builtin("geodesic_sphere_S3", {"a": np.pi / 4}, domain=_OPEN_BAND)
    else:
        s = sample_callable(_h3_sphere_map(), _OPEN_BAND, sf=SpaceForm.hyperbolic(1.0))
    u = random_smooth_field(s, 5)
    h = 1e-3
    for t, d in deform_normal_many(s, u, (h, -h, h / 2, -h / 2)).items():
        _assert_jets_equal(d.jets, deform_normal(s, u, t).jets, t)
        _assert_jets_equal(d.jets, _loop_numeric_jets(d.position_map, s.domain), t)


def test_stencil_evaluation_counts():
    """One evaluation per used stencil offset, shared by every step."""
    domain = PatchDomain((0, 2 * np.pi), (0, 2 * np.pi), 16, 16, periodic_u=True)
    calls = {"map": 0, "field": 0}

    def counted_map(U, V):
        calls["map"] += 1
        return _torus_map()(U, V)

    numeric_jets(counted_map, domain)
    assert calls["map"] == 41

    s = sample_callable(_torus_map(), domain)

    def counted_field(U, V):
        calls["field"] += 1
        return 1.0 + 0.1 * np.cos(U)

    u = ScalarField(counted_field(*domain.meshes()), s, eval_fn=counted_field)
    for ts in ((0.01,), (0.01, -0.01, 0.005, -0.005)):
        calls["field"] = 0
        assert len(deform_normal_many(s, u, ts)) == len(ts)
        assert calls["field"] == 41


@pytest.mark.parametrize(
    "f,domain,sf,normal_evals",
    [
        (_torus_map(), PatchDomain((0, 2 * np.pi), (0, 2 * np.pi), 16, 16, periodic_u=True), SpaceForm.euclidean(), 8),
        (_h3_sphere_map(), PatchDomain((0, 2 * np.pi), (0.3, np.pi - 0.3), 16, 16, periodic_u=True), SpaceForm.hyperbolic(1.0), 9),
    ],
    ids=["E3", "H3"],
)
def test_position_evaluations_per_stencil_offset(f, domain, sf, normal_evals):
    """Without a normal map, each stencil offset of a deformation evaluates
    the position map 9 times: once for the point, 8 times for the tangents
    of the normal. The Euclidean normal alone needs no point."""
    calls = [0]

    def counted_map(U, V):
        calls[0] += 1
        return f(U, V)

    s = sample_callable(counted_map, domain, sf=sf)
    u = ScalarField.constant(1.0, s)
    for ts in ((0.01,), (0.01, -0.01, 0.005, -0.005)):
        calls[0] = 0
        deform_normal_many(s, u, ts)
        assert calls[0] == 41 * 9
    calls[0] = 0
    s.normal_at(*domain.meshes())
    assert calls[0] == normal_evals


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


def test_closed_chart_jets_use_grid_values_only(torus):
    """On a closed chart, sample_callable evaluates the map once, at the
    nodes, and a deformation calls no position map, normal map or field
    evaluator at all."""
    from dataclasses import replace

    calls = {"map": 0, "normal": 0, "field": 0}

    def counted(key, f):
        def g(U, V):
            calls[key] += 1
            return f(U, V)

        return g

    s = sample_callable(counted("map", _torus_map()), torus.domain)
    assert calls["map"] == 1
    UU, VV = torus.domain.meshes()

    def field(U, V):
        return 1.0 + 0.1 * np.cos(U) * np.sin(V)

    for base in (s, replace(torus, position_map=counted("map", torus.position_map), raw_normal_map=counted("normal", torus.raw_normal_map))):
        u = ScalarField(field(UU, VV), base, eval_fn=counted("field", field))
        calls.update(map=0, normal=0, field=0)
        deformed = deform_normal_many(base, u, (0.01, -0.01, 0.005, -0.005))
        assert calls == {"map": 0, "normal": 0, "field": 0}
        assert all(d.position_map is None for d in deformed.values())
    with pytest.raises(ConfigError, match="no position map"):
        deformed[0.01].normal_at(UU, VV)


def test_spectral_tail_guard_refuses_aliased_jets(torus):
    """A field near the Nyquist mode makes the deformed positions carry
    5e-6 of their energy in the top third of the u modes (1e-31 without
    it); their jets are refused, not returned aliased."""
    from curvevar.surface import SPECTRAL_TAIL_BOUND, spectral_tail

    UU, VV = torus.domain.meshes()
    assert max(spectral_tail(torus.positions, torus.domain).values()) < 1e-30
    u = ScalarField(np.cos(50 * UU) * np.cos(3 * VV), torus)
    with pytest.raises(ConfigError) as err:
        deform_normal(torus, u, 0.01)
    msg = str(err.value)
    assert "torus+deform" in msg and "along u" in msg and f"{SPECTRAL_TAIL_BOUND:g}" in msg and "finer grid" in msg
    # the same guard applies to a sampled position map
    with pytest.raises(ConfigError, match="bumpy.*along u"):
        sample_callable(lambda U, V: _torus_map()(U, V) * (1 + 1e-3 * np.cos(50 * U))[..., None], torus.domain, name="bumpy")


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
    u = ScalarField(np.ones(s.shape), s, eval_fn=lambda U, V: np.where(U > 0.5, np.nan, 1.0))
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
