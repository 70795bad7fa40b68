import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from curvevar import ConfigError, SpaceForm
from curvevar.errors import NotTangentError
from curvevar.spaceform import Model


def _random_point_and_dir(sf, rng):
    if sf.model is Model.EUCLIDEAN:
        p = rng.standard_normal(3)
        n = rng.standard_normal(3)
        return p, n / np.linalg.norm(n)
    p = rng.standard_normal(4)
    if sf.model is Model.SPHERE:
        p = sf.radius * p / np.sqrt(sf.flat_inner(p, p))
    else:
        p[3] = np.sqrt(sf.radius**2 + p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
    v = rng.standard_normal(4)
    # project out the normal component, then normalize
    v = v - sf.flat_inner(p, v) / sf.flat_inner(p, p) * p
    return p, v / np.sqrt(sf.flat_inner(v, v))


@pytest.mark.parametrize("sf", [SpaceForm.sphere(1.0), SpaceForm.sphere(2.5), SpaceForm.hyperbolic(1.0), SpaceForm.hyperbolic(0.7)])
def test_geodesic_stays_on_quadric(sf):
    rng = np.random.default_rng(0)
    for _ in range(10):
        p, n = _random_point_and_dir(sf, rng)
        for s in (-1.3, -0.2, 0.0, 0.4, 2.0):
            q = sf.geodesic_step(p, n, s)
            assert np.max(sf.quadric_residual(q)) < 1e-12


@pytest.mark.parametrize("sf", [SpaceForm.euclidean(), SpaceForm.sphere(1.0), SpaceForm.sphere(1.7), SpaceForm.hyperbolic(1.0)])
def test_geodesic_against_ode_oracle(sf):
    """Closed-form geodesic versus numerical integration of p'' = -k0 <p',p'> p
    (the quadric geodesic equation; trivial straight line in the Euclidean case)."""
    rng = np.random.default_rng(1)
    p, n = _random_point_and_dir(sf, rng)
    d = sf.ambient_dim

    def rhs(t, y):
        pos, vel = y[:d], y[d:]
        if sf.model is Model.EUCLIDEAN:
            acc = np.zeros(d)
        else:
            acc = -sf.k0 * sf.flat_inner(vel, vel) * pos
        return np.concatenate([vel, acc])

    s_end = 1.1
    sol = solve_ivp(rhs, (0.0, s_end), np.concatenate([p, n]), rtol=1e-11, atol=1e-12)
    q_ode = sol.y[:d, -1]
    q = sf.geodesic_step(p, n, s_end)
    assert np.max(np.abs(q - q_ode)) < 1e-8


def test_geodesic_unit_speed():
    sf = SpaceForm.sphere(2.0)
    rng = np.random.default_rng(2)
    p, n = _random_point_and_dir(sf, rng)
    eps = 1e-6
    q1 = sf.geodesic_step(p, n, 0.5 + eps)
    q0 = sf.geodesic_step(p, n, 0.5 - eps)
    vel = (q1 - q0) / (2 * eps)
    assert abs(sf.flat_inner(vel, vel) - 1.0) < 1e-8


def test_euclidean_degeneration():
    """Large-radius sphere geodesics converge to straight lines."""
    p3 = np.array([0.3, -0.2, 0.5])
    n3 = np.array([1.0, 2.0, -1.0])
    n3 = n3 / np.linalg.norm(n3)
    straight = p3 + 0.7 * n3
    for rho in (1e2, 1e4):
        sf = SpaceForm.sphere(rho)
        # lift to the quadric near the pole (0,0,0,rho)
        p = np.array([p3[0], p3[1], p3[2], np.sqrt(rho**2 - p3 @ p3)])
        n = np.array([n3[0], n3[1], n3[2], 0.0])
        n = n - sf.flat_inner(p, n) / rho**2 * p
        n = n / np.sqrt(sf.flat_inner(n, n))
        q = sf.geodesic_step(p, n, 0.7)
        assert np.max(np.abs(q[:3] - straight)) < 5.0 / rho


def test_tangency_enforced():
    sf = SpaceForm.sphere(1.0)
    p = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NotTangentError):
        sf.geodesic_step(p, np.array([1.0, 0.0, 0.0, 0.0]), 0.1)
    with pytest.raises(NotTangentError):
        # unit vector but not tangent at p
        sf.geodesic_step(p, np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0]), 0.1)


def test_tangency_guards_name_the_first_bad_node():
    """On a 2-d grid of points of the unit S^3, one direction that is a
    unit vector but not tangent, then one that is tangent but not a unit
    vector: each refusal names its node and states the measured size
    against the bound."""
    sf = SpaceForm.sphere(1.0)
    p = np.zeros((3, 4, 4))
    p[..., 3] = 1.0
    n = np.zeros((3, 4, 4))
    n[..., 0] = 1.0
    n[2, 1] = [0.6, 0.0, 0.0, 0.8]
    with pytest.raises(NotTangentError) as err:
        sf.geodesic_step(p, n, 0.1)
    assert str(err.value) == "not tangent at node (2, 1): |<p, v>| = 8.000e-01, bound 1.000e-08"
    n[2, 1] = [1.0, 0.0, 0.0, 0.0]
    n[1, 3] = [1.0, 0.5, 0.0, 0.0]
    with pytest.raises(NotTangentError) as err:
        sf.geodesic_step(p, n, 0.1)
    assert str(err.value) == "direction is not a unit vector at node (1, 3): |<n, n> - 1| = 2.500e-01, bound 1e-08"


def test_config_validation():
    with pytest.raises(ConfigError):
        SpaceForm.sphere(-1.0)


def test_hyperbolic_signature():
    sf = SpaceForm.hyperbolic(1.0)
    assert sf.flat_inner(np.array([0, 0, 0, 1.0]), np.array([0, 0, 0, 1.0])) == -1.0
    p = np.array([0.0, 0.0, 0.0, 1.0])
    assert sf.quadric_residual(p) < 1e-15


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_space_forms_are_refused(bad):
    """A NaN or infinite model radius is refused: sphere(inf) built a
    "curved" form with k0 = 0."""
    for build in (
        lambda: SpaceForm.sphere(bad),
        lambda: SpaceForm.hyperbolic(bad),
    ):
        with pytest.raises(ConfigError, match="must be (positive and )?finite"):
            build()


def test_radii_whose_square_overflows_or_vanishes_are_refused():
    """A radius is refused unless r^2 and 1/r^2 are finite and nonzero:
    sphere(1e200) used to raise a raw OverflowError, hyperbolic(1e-170) a
    raw ZeroDivisionError."""
    for build, r in (
        (lambda: SpaceForm.sphere(1e200), "radius = 1e+200"),
        (lambda: SpaceForm.hyperbolic(1e-170), "radius = 1e-170"),
    ):
        with pytest.raises(ConfigError, match=r"radius must have .*\^2 finite and nonzero \(got " + re.escape(r)):
            build()
    assert SpaceForm.sphere(1e150).k0 == pytest.approx(1e-300)
    assert SpaceForm.hyperbolic(1e-150).k0 == pytest.approx(-1e300)


@pytest.mark.parametrize(
    "args",
    [
        (1.0, Model.SPHERE),
        (0.5, Model.SPHERE, 1.0),
        (-1.0, Model.SPHERE, 1.0),
        (1.0, Model.HYPERBOLOID, 1.0),
        (float("nan"), Model.HYPERBOLOID, 1.0),
        (1.0, Model.EUCLIDEAN),
        (0.0, Model.EUCLIDEAN, 1.0),
        (1.0, "sphere", 1.0),
    ],
)
def test_inconsistent_space_form_is_refused(args):
    """Only k0 = 0 with radius 0 in E^3, and k0 = +-1/r^2 exactly on a model
    quadric of a valid radius r, make a space form; the refusal is one line
    that names the fields."""
    with pytest.raises(ConfigError) as err:
        SpaceForm(*args)
    message = str(err.value)
    assert "\n" not in message and "radius" in message
    if len(args) == 3 or args[1] is Model.EUCLIDEAN:
        assert all(f"{name}=" in message for name in ("k0", "model", "radius"))
