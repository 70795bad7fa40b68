"""Hopf tori in S^3(1): exact values where H varies and the chart is not
orthogonal.

The Hopf torus over a closed curve gamma on S^2(1/2) is intrinsically
flat, has area 2 pi L(gamma), mean curvature -kappa(s)/2 over gamma(s)
(kappa the geodesic curvature of gamma, in the orientation
``sample_callable`` picks) and Willmore energy
int (H^2 + 1) dS = (pi/2) int (kappa^2 + 4) ds (Pinkall, Invent. Math. 81
(1985) 379-386). The curve here is gamma(s) = (1/2)(sin t cos s,
sin t sin s, cos t) with t = t0 + eps cos(ms); its lift is
T(s, phi) = (cos(t/2) cos(s + phi), cos(t/2) sin(s + phi),
sin(t/2) cos phi, sin(t/2) sin phi), sampled on the doubly periodic 128x64
chart with u = s (``acceptance._hopf_torus``, which criteria 3, 5 and 13
sample too). Every reference value is computed from gamma alone.
"""

import numpy as np
import pytest

from curvevar import (
    area,
    curvature_scalars,
    fundamental_forms,
    functional_value,
    intrinsic_gauss_curvature,
)
from curvevar.acceptance import HOPF_CURVES, _hopf_torus
from curvevar.densities import willmore

# (t0, eps, m) = (pi/2, 0.3, 3) and (1.2, 0.4, 2) and the bound of each check, 10x its value measured at 128x64
# ("W" 10 ulp where W and its prediction differ in the last bits only);
# "W" and "area" are relative to (pi/2)(int kappa^2 ds + 4L) and 2 pi L
CASES = dict(zip(HOPF_CURVES, (
    {"W": 4.4e-15, "area": 3.1e-15, "K": 1.5e-11, "K_E": 1.5e-11, "H": 2.3e-11, "brioschi": 4.1e-11},
    {"W": 1.8e-15, "area": 1.7e-15, "K": 1.4e-11, "K_E": 1.4e-11, "H": 2.5e-11, "brioschi": 6.0e-11},
)))


def _curve(t0: float, eps: float, m: int, s: np.ndarray):
    """|gamma'| and kappa = <gamma' x gamma'', gamma/|gamma|> / |gamma'|^3 at
    the nodes s, from gamma' and gamma'' in the frame e_r, e_t, e_s of S^2."""
    t, t1, t2 = t0 + eps * np.cos(m * s), -eps * m * np.sin(m * s), -eps * m**2 * np.cos(m * s)
    e_r = np.stack([np.sin(t) * np.cos(s), np.sin(t) * np.sin(s), np.cos(t)], axis=-1)
    e_t = np.stack([np.cos(t) * np.cos(s), np.cos(t) * np.sin(s), -np.sin(t)], axis=-1)
    e_s = np.stack([-np.sin(s), np.cos(s), np.zeros_like(s)], axis=-1)
    d1 = 0.5 * (t1[:, None] * e_t + np.sin(t)[:, None] * e_s)
    d2 = 0.5 * (
        (t2 - np.sin(t) * np.cos(t))[:, None] * e_t
        + (2 * t1 * np.cos(t))[:, None] * e_s
        - (t1**2 + np.sin(t) ** 2)[:, None] * e_r
    )
    speed = np.linalg.norm(d1, axis=-1)
    return speed, np.sum(np.cross(d1, d2) * e_r, axis=-1) / speed**3


@pytest.fixture(scope="module", params=list(CASES), ids=lambda c: "t0=%.4g,eps=%g,m=%d" % c)
def hopf(request):
    s = _hopf_torus(*request.param)
    nodes = s.domain.axes[0].nodes
    speed, kappa = _curve(*request.param, nodes)
    ds = 2 * np.pi / len(nodes)
    return s, kappa, np.sum(speed) * ds, np.sum(kappa**2 * speed) * ds, CASES[request.param]


def test_hopf_torus_willmore_energy_and_area(hopf):
    s, _, length, kappa_sq, bound = hopf
    want = 0.5 * np.pi * (kappa_sq + 4.0 * length)
    assert abs(functional_value(s, willmore(1.0)) - want) <= bound["W"] * want
    assert abs(area(s) - 2 * np.pi * length) <= bound["area"] * 2 * np.pi * length


def test_hopf_torus_is_flat_with_mean_curvature_half_kappa(hopf):
    s, kappa, _, _, bound = hopf
    cs = curvature_scalars(s)
    assert np.max(np.abs(cs.K)) <= bound["K"]
    assert np.max(np.abs(cs.K_E + 1.0)) <= bound["K_E"]
    assert np.max(np.abs(cs.H + 0.5 * kappa[:, None])) <= bound["H"]
    assert np.max(np.abs(intrinsic_gauss_curvature(s))) <= bound["brioschi"]
    # H varies and the chart is far from orthogonal
    assert np.ptp(cs.H) > 3.0
    g = fundamental_forms(s).g
    assert np.max(np.abs(g[..., 0, 1])) > 0.5 * np.max(np.abs(g))
