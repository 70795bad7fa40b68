import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from curvevar.densities import (
    EnergyDensity,
    bending,
    builtin_density,
    density_from_expr,
    helfrich,
    ksquared,
    pwillmore,
    willmore,
)
from curvevar.errors import ConfigError, GuardViolation


def _fd_check(E: EnergyDensity, H, K, tol=1e-6):
    """Finite-difference cross-check of every stored partial derivative."""
    h = 1e-5
    P = E.partials
    pairs = [
        (P[(1, 0)], lambda a, b: (P[(0, 0)](a + h, b) - P[(0, 0)](a - h, b)) / (2 * h)),
        (P[(0, 1)], lambda a, b: (P[(0, 0)](a, b + h) - P[(0, 0)](a, b - h)) / (2 * h)),
        (P[(2, 0)], lambda a, b: (P[(1, 0)](a + h, b) - P[(1, 0)](a - h, b)) / (2 * h)),
        (P[(1, 1)], lambda a, b: (P[(1, 0)](a, b + h) - P[(1, 0)](a, b - h)) / (2 * h)),
        (P[(0, 2)], lambda a, b: (P[(0, 1)](a, b + h) - P[(0, 1)](a, b - h)) / (2 * h)),
    ]
    for exact, fd in pairs:
        err = np.max(np.abs(exact(H, K) - fd(H, K)))
        assert err < tol, err


@pytest.mark.parametrize(
    "E",
    [willmore(0.5), bending(1.0), helfrich(1.2, 0.3, 0.5), pwillmore(3), pwillmore(2.5), ksquared()],
    ids=[
        "willmore-{'k0': 0.5}",
        "bending-{'k0': 1.0}",
        "helfrich-{'kc': 1.2, 'c0': 0.3, 'kbar': 0.5}",
        "pwillmore-{'p': 3.0}",
        "pwillmore-{'p': 2.5}",
        "ksquared-{}",
    ],
)
def test_partials_against_finite_differences(E):
    rng = np.random.default_rng(0)
    H = 0.5 + rng.uniform(0.2, 2.0, 50)  # inside the H > 0 guard region
    K = rng.uniform(-1.0, 1.0, 50)
    _fd_check(E, H, K)


def test_willmore_values():
    E = willmore(0.25)
    assert E.partials[(0, 0)](2.0, 5.0) == pytest.approx(4.25)
    assert E.partials[(1, 0)](2.0, 5.0) == pytest.approx(4.0)
    assert E.partials[(0, 1)](2.0, 5.0) == pytest.approx(0.0)
    assert E.partials[(2, 0)](2.0, 5.0) == pytest.approx(2.0)


def test_helfrich_reduces_to_willmore():
    E = helfrich(0.25, 0.0, 0.0)
    H = np.linspace(-2, 2, 9)
    K = np.linspace(-1, 1, 9)
    assert np.max(np.abs(E.partials[(0, 0)](H, K) - H**2)) < 1e-14


def test_pwillmore_integer_allows_negative_H():
    E = pwillmore(3)
    E.check_guard(np.array([-1.0, 0.0, 1.0]), np.zeros(3))  # no guard
    assert E.partials[(0, 0)](-2.0, 0.0) == pytest.approx(-8.0)


def test_pwillmore_fractional_guard():
    E = pwillmore(2.5)
    with pytest.raises(GuardViolation):
        E.check_guard(np.array([[1.0, -0.1]]), np.zeros((1, 2)))
    try:
        E.check_guard(np.array([[1.0, -0.1]]), np.zeros((1, 2)))
    except GuardViolation as exc:
        assert exc.node == (0, 1)


def test_guards_name_the_first_bad_node_in_any_ndim():
    """The guard and the finiteness check name the first bad entry, as a
    tuple of ints, for grid arrays and for 1-d and 0-d arrays alike."""
    E = pwillmore(2.5)
    for H, node in (
        (np.array([1.0, 2.0, -0.1, -0.2]), (2,)),
        (np.array([[1.0, 2.0], [-0.1, -0.2]]), (1, 0)),
        (np.array(-0.5), ()),
    ):
        with pytest.raises(GuardViolation) as guard:
            E.check_guard(H, np.zeros_like(H))
        assert guard.value.node == node and all(type(i) is int for i in node)
    with pytest.raises(GuardViolation, match=r"not finite at node \(1,\): E_H = inf") as bad:
        willmore().guarded(np.array([1.0, np.inf, np.inf]), np.zeros(3), (1, 0), (0, 0))
    assert bad.value.node == (1,)


def test_pwillmore_validation():
    with pytest.raises(ConfigError):
        pwillmore(0.5)


def test_density_from_expr_third_partials():
    H, K = sp.symbols("H K")
    E = density_from_expr(H**4 + H * K**2, "custom")
    assert E.partials[(3, 0)](2.0, 1.0) == pytest.approx(48.0)
    assert E.partials[(1, 2)](2.0, 1.0) == pytest.approx(2.0)
    assert E.partials[(0, 3)](2.0, 1.0) == pytest.approx(0.0)


def test_density_from_expr_loads_no_unused_numpy_submodules():
    """Lambdify is given the numpy module, not the string "numpy": the
    string runs ``from numpy import *``, which loads numpy.f2py,
    numpy.testing, unittest and more for the same generated source."""
    import os
    import subprocess
    import sys

    import curvevar

    code = (
        "import sys\n"
        "from curvevar import density_from_expr\n"
        "E = density_from_expr('H**2*sqrt(H) - K', 'custom')\n"
        "assert E.partials[(1, 0)](4.0, 1.0) == 20.0, E.partials[(1, 0)](4.0, 1.0)\n"
        "assert 'numpy.f2py' not in sys.modules, 'numpy.f2py was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(curvevar.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_density_from_expr_rejects_stray_symbols():
    H, x = sp.symbols("H x")
    with pytest.raises(ConfigError):
        density_from_expr(H + x, "bad")


def test_builtin_density_dispatch():
    assert builtin_density("willmore").name == "willmore"
    # p reaches the density: H^2 at H = 3 is 9
    assert builtin_density("pwillmore", p=2).partials[(0, 0)](3.0, 0.0) == 9.0
    with pytest.raises(ConfigError):
        builtin_density("pwillmore")
    with pytest.raises(ConfigError):
        builtin_density("nonsense")


@given(
    st.floats(min_value=0.3, max_value=3.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=1.0, max_value=4.0),
)
@settings(max_examples=25, deadline=None)
def test_pwillmore_symmetry_property(H, K, p):
    """H^p density is independent of K: all K-partials vanish."""
    E = pwillmore(p)
    assert E.partials[(0, 1)](H, K) == 0.0
    assert E.partials[(1, 1)](H, K) == 0.0
    assert E.partials[(0, 2)](H, K) == 0.0


def test_builtin_density_refuses_keys_it_does_not_take():
    """Each built-in takes its own parameters only; any other key used to
    be dropped without a word."""
    with pytest.raises(ConfigError, match=r"density 'helfrich' does not take 'k0', 'p' \(it takes: kc, c0, kbar\)"):
        builtin_density("helfrich", p=2, k0=1)
    with pytest.raises(ConfigError, match=r"density 'area' does not take 'k0' \(it takes: nothing\)"):
        builtin_density("area", k0=0.0)
    with pytest.raises(ConfigError, match="pwillmore requires the exponent p"):
        builtin_density("pwillmore")
    # kc = 2 with the defaults c0 = 0, kbar = 0: E = 2 (2H)^2, so E = 18 and
    # E_H = 24 at H = 1.5, and E_K = kbar = 0
    E = builtin_density("helfrich", kc=2.0)
    assert (E.partials[(0, 0)](1.5, 0.7), E.partials[(1, 0)](1.5, 0.7), E.partials[(0, 1)](1.5, 0.7)) == (18.0, 24.0, 0.0)
