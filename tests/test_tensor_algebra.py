"""Per-node 2x2 tensor algebra: parity with einsum references, and the rule
that keeps einsum out of the per-node code.

The modules combine per-node tensors with batched ``@`` on their trailing
axes. The references below spell each contraction out as the index
expression it encodes, with ``np.einsum``, so the two routes share no code
past the immersion jets.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from curvevar import SpaceForm, default_domain, deform_normal, sample_builtin, sample_callable
from curvevar.calculus import (
    bilinear,
    contract,
    gradient,
    grad_inner,
    h_squared,
    hessian,
    laplace_beltrami,
    random_smooth_field,
    shape_tensor,
)
from curvevar.catalog import CATALOG_NAMES
from curvevar.curvature import Taylor2, curvature_scalars, fundamental_forms, intrinsic_gauss_curvature
from curvevar.surface import induced_metric

# Worst differences measured over the cases below (all six catalog charts,
# a deformed torus and the numeric-jet H^3 sphere, at 64x32), relative to
# the reference's size: 3.2e-15 (contract on geodesic_sphere_S3) for the
# algebra, and 2.8e-13 (h3_sphere) for the intrinsic Gauss curvature, whose
# derivatives of Gamma cancel near the poles of the sphere charts.
PARITY_BOUND = 1e-14
INTRINSIC_K_BOUND = 1e-12

_E = ((1, 0), (0, 1))


def _inner(signs, x, y):
    return np.einsum("...i,i,...i->...", x, signs, y)


def _h3_sphere():
    """Numeric-jet geodesic sphere of radius 0.7 in H^3 (spectral jets)."""
    a = 0.7

    def f(U, V):
        sh = np.sinh(a)
        return np.stack(
            [sh * np.sin(V) * np.cos(U), sh * np.sin(V) * np.sin(U), sh * np.cos(V), np.full(np.shape(U), np.cosh(a))],
            axis=-1,
        )

    return sample_callable(f, default_domain("sphere", None, 64, 32), sf=SpaceForm.hyperbolic(1.0), name="h3_sphere")


def _sample(case):
    if case == "h3_sphere":
        return _h3_sphere()
    if case == "torus+deform":
        s = sample_builtin("torus", {}, domain=default_domain("torus", {}, 64, 32))
        return deform_normal(s, random_smooth_field(s, 5), 0.05)
    return sample_builtin(case, {}, domain=default_domain(case, {}, 64, 32))


CASES = CATALOG_NAMES + ("torus+deform", "h3_sphere")


def _reference(s):
    """g, g^-1, h, dg, Gamma, the curvature scalars and, with order-3 jets,
    the intrinsic Gauss curvature, by einsum from the jets."""
    signs, j = s.sf.metric_signs, s.jets

    def r(*ab):  # the immersion partial d_(sum of ab) r
        return j[tuple(map(sum, zip((0, 0), *ab)))]

    ref = {}
    basis = np.stack([r(e) for e in _E], axis=-2)
    g = ref["g"] = np.einsum("...ik,k,...jk->...ij", basis, signs, basis)
    g_inv = ref["g_inv"] = np.linalg.inv(g)
    N = fundamental_forms(s).N
    ref["h"] = np.stack([np.stack([_inner(signs, N, r(ea, eb)) for eb in _E], axis=-1) for ea in _E], axis=-2)
    dg = ref["dg"] = np.empty(s.shape + (2, 2, 2))  # d_k g_ij = <r_ik, r_j> + <r_i, r_jk>
    for k, ek in enumerate(_E):
        for a, ea in enumerate(_E):
            for b, eb in enumerate(_E):
                dg[..., k, a, b] = _inner(signs, r(ea, ek), r(eb)) + _inner(signs, r(ea), r(eb, ek))
    c = np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg  # C_l,ij
    gamma = ref["gamma"] = 0.5 * np.einsum("...kl,...lij->...kij", g_inv, c)

    shape_op = np.einsum("...ik,...kj->...ij", g_inv, ref["h"])
    ref["H"] = 0.5 * np.einsum("...ii->...", shape_op)
    ref["K_E"] = np.linalg.det(ref["h"]) / np.linalg.det(g)
    ref["h_norm_sq"] = np.einsum("...ik,...jl,...ij,...kl->...", g_inv, g_inv, ref["h"], ref["h"])
    if s.jet_order < 3:
        return ref

    # d_k d_l g_ij = <r_ikl, r_j> + <r_ik, r_jl> + <r_il, r_jk> + <r_i, r_jkl>
    d2g = np.empty(s.shape + (2, 2, 2, 2))
    for k, ek in enumerate(_E):
        for l, el in enumerate(_E):
            for a, ea in enumerate(_E):
                for b, eb in enumerate(_E):
                    d2g[..., k, l, a, b] = (
                        _inner(signs, r(ea, ek, el), r(eb))
                        + _inner(signs, r(ea, ek), r(eb, el))
                        + _inner(signs, r(ea, el), r(eb, ek))
                        + _inner(signs, r(ea), r(eb, ek, el))
                    )
    dginv = -np.einsum("...ma,...kab,...bl->...kml", g_inv, dg, g_inv)
    dc = np.einsum("...kijl->...klij", d2g) + np.einsum("...kjil->...klij", d2g) - d2g
    dgamma = 0.5 * (np.einsum("...kml,...lij->...kmij", dginv, c) + np.einsum("...ml,...klij->...kmij", g_inv, dc))
    # R^e_101 = d_0 Gamma^e_11 - d_1 Gamma^e_01 + Gamma^e_0m Gamma^m_11 - Gamma^e_1m Gamma^m_01
    r_up = (
        dgamma[..., 0, :, 1, 1]
        - dgamma[..., 1, :, 0, 1]
        + np.einsum("...em,...m->...e", gamma[..., :, 0, :], gamma[..., :, 1, 1])
        - np.einsum("...em,...m->...e", gamma[..., :, 1, :], gamma[..., :, 0, 1])
    )
    ref["K_intrinsic"] = np.einsum("...e,...e->...", g[..., 0, :], r_up) / np.linalg.det(g)
    return ref


def _rel(got, want):
    """Largest difference relative to the reference's size, floored at 1
    (the charts have unit size; H vanishes on the catenoid, and dg, Gamma
    and K on the Clifford torus)."""
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1.0))


def _operator_pairs(s, ref):
    """(name, value, einsum reference) for the operators in ``calculus``."""
    f1, f2 = random_smooth_field(s, 1), random_smooth_field(s, 2)
    g_inv, gamma = ref["g_inv"], ref["gamma"]

    def d1(f):
        return np.stack([f.partial(1, 0), f.partial(0, 1)], axis=-1)

    def hess_ref(f):
        fuv = f.partial(1, 1)
        second = np.stack([np.stack([f.partial(2, 0), fuv], -1), np.stack([fuv, f.partial(0, 2)], -1)], -2)
        return second - np.einsum("...kij,...k->...ij", gamma, d1(f))

    h = ref["h"]
    hess1 = hessian(f1, s)
    grad1 = np.einsum("...ij,...j->...i", g_inv, d1(f1))
    grad2 = np.einsum("...ij,...j->...i", g_inv, d1(f2))
    h2 = np.einsum("...kl,...li,...kj->...ij", g_inv, h, h)
    return [
        ("induced_metric", induced_metric(s), ref["g"]),
        ("hessian", hess1.comps, hess_ref(f1)),
        ("gradient", gradient(f1, s), grad1),
        ("laplace_beltrami", laplace_beltrami(f1, s).values, np.einsum("...ij,...ij->...", g_inv, hess_ref(f1))),
        ("grad_inner", grad_inner(f1, f2, s), np.einsum("...ij,...i,...j->...", g_inv, d1(f1), d1(f2))),
        ("h_squared", h_squared(s).comps, h2),
        (
            "contract",
            contract(shape_tensor(s), hess1, s).values,
            np.einsum("...ik,...jl,...ij,...kl->...", g_inv, g_inv, h, hess_ref(f1)),
        ),
        ("bilinear", bilinear(h_squared(s), f1, f2, s), np.einsum("...ij,...i,...j->...", h2, grad1, grad2)),
    ]


def _worst(s):
    ref = _reference(s)
    ff, cs = fundamental_forms(s), curvature_scalars(s)
    pairs = [(k, getattr(ff, k), ref[k]) for k in ("g", "g_inv", "h", "dg", "gamma")]
    pairs += [(k, getattr(cs, k), ref[k]) for k in ("H", "K_E", "h_norm_sq")]
    if "K_intrinsic" in ref:
        pairs.append(("intrinsic_gauss_curvature", intrinsic_gauss_curvature(s), ref["K_intrinsic"]))
    pairs += _operator_pairs(s, ref)
    return {name: _rel(got, want) for name, got, want in pairs}


@pytest.mark.parametrize("case", CASES)
def test_per_node_algebra_matches_einsum_reference(case):
    """Fundamental forms, curvature scalars, the intrinsic Gauss curvature
    and the calculus operators equal their index expressions to round-off,
    on every catalog chart, a deformed sample and a numeric-jet sample."""
    worst = _worst(_sample(case))
    bounds = {"intrinsic_gauss_curvature": INTRINSIC_K_BOUND}
    bad = {k: v for k, v in worst.items() if not v <= bounds.get(k, PARITY_BOUND)}
    assert not bad, bad


def test_ambient_quadratic_form_matches_einsum_reference(torus):
    """The jet of an ambient quadratic polynomial field, x^T M x through the
    immersion jets, against the same jet built with an einsum form."""
    f = random_smooth_field(torus, 7)
    x = Taylor2.from_jets(torus.jets)
    want = (
        f.c0
        + Taylor2.multilinear(lambda y: y @ f.cvec, x)
        + Taylor2.multilinear(lambda y, z: np.einsum("...i,ij,...j->...", y, f.mat, z), x, x)
    )
    for got, ref in zip(f.jet.parts, want.parts):
        assert _rel(got, ref) <= PARITY_BOUND


PER_NODE_MODULES = ("curvature", "calculus", "surface", "spaceform", "variations")


@pytest.mark.parametrize("module", PER_NODE_MODULES)
def test_no_einsum_in_per_node_code(module):
    """Per-node contractions over trailing 2x2 axes go through batched @.

    numpy's einsum runs them as a generic strided loop over the tiny
    trailing axes: at 128x64 nodes, "...ik,...kj->...ij" takes 2.1 ms
    where g_inv @ h takes 0.27 ms, and the 4-operand contraction of
    |h|^2 took 2.8 ms. Those calls were 58 % of a deformation-oracle pass,
    so einsum stays out of these modules (gridops keeps its einsums, which
    apply dense difference matrices along a grid axis).
    """
    path = Path(__file__).resolve().parents[1] / "src" / "curvevar" / f"{module}.py"
    hits = [i + 1 for i, line in enumerate(path.read_text().splitlines()) if re.search(r"\beinsum\b", line)]
    assert not hits, f"einsum in curvevar/{module}.py at lines {hits}"
