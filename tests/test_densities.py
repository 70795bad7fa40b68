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
    pairs = [
        (E.E_H, lambda a, b: (E.eval(a + h, b) - E.eval(a - h, b)) / (2 * h)),
        (E.E_K, lambda a, b: (E.eval(a, b + h) - E.eval(a, b - h)) / (2 * h)),
        (E.E_HH, lambda a, b: (E.E_H(a + h, b) - E.E_H(a - h, b)) / (2 * h)),
        (E.E_HK, lambda a, b: (E.E_H(a, b + h) - E.E_H(a, b - h)) / (2 * h)),
        (E.E_KK, lambda a, b: (E.E_K(a, b + h) - E.E_K(a, b - h)) / (2 * h)),
    ]
    for exact, fd in pairs:
        err = np.max(np.abs(exact(H, K) - fd(H, K)))
        assert err < tol, err


@pytest.mark.parametrize(
    "E",
    [willmore(0.5), bending(1.0), helfrich(1.2, 0.3, 0.5), pwillmore(3), pwillmore(2.5), ksquared()],
    ids=lambda E: f"{E.name}-{E.params}",
)
def test_partials_against_finite_differences(E):
    rng = np.random.default_rng(0)
    H = 0.5 + rng.uniform(0.2, 2.0, 50)  # inside the H > 0 guard region
    K = rng.uniform(-1.0, 1.0, 50)
    _fd_check(E, H, K)


def test_willmore_values():
    E = willmore(0.25)
    assert E.eval(2.0, 5.0) == pytest.approx(4.25)
    assert E.E_H(2.0, 5.0) == pytest.approx(4.0)
    assert E.E_K(2.0, 5.0) == pytest.approx(0.0)
    assert E.E_HH(2.0, 5.0) == pytest.approx(2.0)


def test_helfrich_reduces_to_willmore():
    E = helfrich(0.25, 0.0, 0.0)
    H = np.linspace(-2, 2, 9)
    K = np.linspace(-1, 1, 9)
    assert np.max(np.abs(E.eval(H, K) - H**2)) < 1e-14


def test_pwillmore_integer_allows_negative_H():
    E = pwillmore(3)
    E.check_guard(np.array([-1.0, 0.0, 1.0]), np.zeros(3))  # no guard
    assert E.eval(-2.0, 0.0) == pytest.approx(-8.0)


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
        willmore().guarded(np.array([1.0, np.inf, np.inf]), np.zeros(3), "E_H", "eval")
    assert bad.value.node == (1,)


def test_pwillmore_validation():
    with pytest.raises(ConfigError):
        pwillmore(0.5)


def test_density_from_expr_third_partials():
    H, K = sp.symbols("H K")
    E = density_from_expr(H**4 + H * K**2, "custom")
    assert E.third is not None
    assert E.third["HHH"](2.0, 1.0) == pytest.approx(48.0)
    assert E.third["HKK"](2.0, 1.0) == pytest.approx(2.0)
    assert E.third["KKK"](2.0, 1.0) == pytest.approx(0.0)


def test_density_from_expr_rejects_stray_symbols():
    H, x = sp.symbols("H x")
    with pytest.raises(ConfigError):
        density_from_expr(H + x, "bad")


def test_builtin_density_dispatch():
    assert builtin_density("willmore").name == "willmore"
    assert builtin_density("pwillmore", p=2).params["p"] == 2.0
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
    assert E.E_K(H, K) == 0.0
    assert E.E_HK(H, K) == 0.0
    assert E.E_KK(H, K) == 0.0


def test_builtin_density_refuses_keys_it_does_not_take():
    """Each built-in takes its own parameters only; any other key used to
    be dropped without a word."""
    with pytest.raises(ConfigError, match=r"density 'helfrich' does not take 'k0', 'p' \(it takes: kc, c0, kbar\)"):
        builtin_density("helfrich", p=2, k0=1)
    with pytest.raises(ConfigError, match=r"density 'area' does not take 'k0' \(it takes: nothing\)"):
        builtin_density("area", k0=0.0)
    with pytest.raises(ConfigError, match="pwillmore requires the exponent p"):
        builtin_density("pwillmore")
    assert builtin_density("helfrich", kc=2.0).params == {"kc": 2.0, "c0": 0.0, "kbar": 0.0}
