"""Per-node tensor algebra: parity with einsum references, the per-node
bilinear tables on their own, and the rule that keeps numpy's per-node
loops out of the per-node code.

The modules combine per-node tensors with bilinear tables
(``surface._Bilinear``), which write every entry out with whole-grid
ufuncs. The references below spell each contraction out as the index expression it
encodes, with ``np.einsum`` (or ``np.cross``), so the two routes share no
code past the immersion jets.
"""

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from curvevar import SpaceForm, default_domain, deform_normal, sample_builtin, sample_callable
from curvevar.errors import ConfigError, GuardViolation
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
from curvevar.curvature import (
    _FROBENIUS,
    _MAT_MUL,
    _MAT_VEC,
    _PRODUCT,
    _SYM_MAT_MUL,
    _VEC_BLOCKS,
    Taylor2,
    _metric,
    _raw_normal,
    _symmetric_block,
    curvature_scalars,
    fundamental_forms,
    intrinsic_gauss_curvature,
)
from curvevar.surface import (
    _cross,
    _inner_form,
    _nonfinite_node,
    check_immersion,
    numeric_jets,
)
from jet_reference import multilinear

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
    """g, g^-1, h, the Christoffel symbols of the first and second kind
    (from the metric derivatives dg), the curvature scalars and, with
    order-3 jets, the intrinsic Gauss curvature, by einsum from the jets."""
    signs, j = s.sf.metric_signs, s.jets

    def r(*ab):  # the immersion partial d_(sum of ab) r
        return j[tuple(map(sum, zip((0, 0), *ab)))]

    ref = {}
    basis = np.stack([r(e) for e in _E], axis=-2)
    g = ref["g"] = np.einsum("...ik,k,...jk->...ij", basis, signs, basis)
    g_inv = ref["g_inv"] = np.linalg.inv(g)
    N = fundamental_forms(s).N
    ref["h"] = np.stack([np.stack([_inner(signs, N, r(ea, eb)) for eb in _E], axis=-1) for ea in _E], axis=-2)
    dg = np.empty(s.shape + (2, 2, 2))  # d_k g_ij = <r_ik, r_j> + <r_i, r_jk>
    for k, ek in enumerate(_E):
        for a, ea in enumerate(_E):
            for b, eb in enumerate(_E):
                dg[..., k, a, b] = _inner(signs, r(ea, ek), r(eb)) + _inner(signs, r(ea), r(eb, ek))
    c = np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg  # C_l,ij
    ref["christoffel"] = 0.5 * c  # Gamma_l,ij
    gamma = ref["gamma"] = 0.5 * np.einsum("...kl,...lij->...kij", g_inv, c)  # Gamma^k_ij

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
    (the charts have unit size; H vanishes on the catenoid, and the
    Christoffel symbols and K on the Clifford torus)."""
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1.0))


def _metric_block(s):
    """g of a sample as a symmetric (..., 2, 2) array, from the metric
    formula of the forms and the metric jets."""
    return _symmetric_block(*_metric(s.sf, s.jets[(1, 0)], s.jets[(0, 1)]))


def _quadric_model(signs):
    """The 4-d space form whose flat metric has the signs ``signs``."""
    return SpaceForm.sphere(1.0) if signs[-1] > 0 else SpaceForm.hyperbolic(1.0)


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
        ("_metric", _metric_block(s), ref["g"]),
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
    pairs = [(k, getattr(ff, k), ref[k]) for k in ("g", "g_inv", "h", "christoffel")]
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
        + multilinear(lambda y: y @ f.cvec, x)
        + multilinear(lambda y, z: np.einsum("...i,ij,...j->...", y, f.mat, z), x, x)
    )
    for got, ref in zip(f.jet.parts, want.parts):
        assert _rel(got, ref) <= PARITY_BOUND


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_ambient_poly_field_jet_matches_multilinear_reference_bit_for_bit(name):
    """The jet of an ambient quadratic polynomial field, c0 + c.x through
    x^T M x as the dot-product table of (M x, x), equals the reference
    Leibniz expansion of the linear and quadratic maps bit for bit."""
    s = sample_builtin(name, {}, domain=default_domain(name, {}, 32, 16))
    x = Taylor2.from_jets(s.jets)
    dot = _inner_form((1,) * s.ambient_dim)
    for seed in range(3):
        f = random_smooth_field(s, seed)
        want = f.c0 + multilinear(lambda y: y @ f.cvec, x) + multilinear(lambda y, z: dot(y @ f.mat, z), x, x)
        for slot, (got, ref) in enumerate(zip(f.jet.parts, want.parts)):
            assert got.dtype == ref.dtype == np.dtype(float)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (seed, slot)


def test_no_second_jet_product_route_in_src():
    """``Taylor2.bilinear`` on a table is the one route for per-node jet
    products in the package; the Leibniz expansion through the map itself
    (``multilinear``) lives in the tests as their reference only."""
    hits = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "curvevar").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "name", None) or getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(name, str) and name.rsplit(".", 1)[-1] == "multilinear":
                hits.append((path.name, node.lineno))
    assert not hits, f"multilinear defined or used in src/curvevar: {hits}"


def _operands(dtype, seed):
    """Standard normal arrays of the given shapes, complex ones with a
    standard normal imaginary part."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    return draw


@pytest.mark.parametrize("dtype", [float, complex])
def test_per_node_kernels_match_einsum_reference(dtype):
    """Each bilinear table equals the index expression it writes out, on
    operands whose leading axes broadcast against each other, including
    hessian's covector against a (..., 2, 2, 2) Christoffel block. The result
    takes the operands' dtype, so complex operands (a complex-step
    derivative) keep their imaginary part."""
    draw = _operands(dtype, 3)
    a, b, t = draw(5, 4, 2, 2), draw(4, 2, 2), draw(5, 4, 2, 2, 2)
    sym = b + np.swapaxes(b, -2, -1)  # a sym a^T is symmetric
    row, vec = draw(4, 1, 2), draw(5, 1, 2)
    cases = [
        ("_MAT_MUL", _MAT_MUL(a, b), np.einsum("...ik,...kj->...ij", a, b)),
        ("_MAT_MUL", _MAT_MUL(b, a), np.einsum("...ik,...kj->...ij", b, a)),
        ("_MAT_VEC", _MAT_VEC(a, vec), np.einsum("...ij,...j->...i", a, vec)),
        ("_SYM_MAT_MUL", _SYM_MAT_MUL(_MAT_MUL(a, sym), np.swapaxes(a, -2, -1)), np.einsum("...ik,...kl,...jl->...ij", a, sym, a)),
        ("_VEC_BLOCKS", _VEC_BLOCKS(row[..., 0, :], t), np.einsum("...kl,...lij->...kij", row, t)[..., 0, :, :]),
        ("_FROBENIUS", _FROBENIUS(a, b), np.einsum("...ij,...ij->...", a, b)),
        ("_PRODUCT", _PRODUCT(a, b), a * b),
    ]
    for n in (2, 3, 4):
        x, y = draw(5, 4, n), draw(4, n)
        cases.append((f"_inner_form ({n})", _inner_form((1,) * n)(x, y), np.einsum("...i,...i->...", x, y)))
    x, y = draw(5, 4, 3), draw(4, 3)
    cases += [("_cross", _cross(x, y), np.cross(x, y)), ("_cross", _cross(y, x), np.cross(y, x))]
    for name, got, want in cases:
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert _rel(got, want) <= PARITY_BOUND, name


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("signs", [(1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, -1.0)])
def test_quadric_normal_matches_determinant_reference(signs, dtype):
    """The cofactor expansion with the metric signs folded in equals
    n^l = G^ll det(e_l, q, r_u, r_v), the determinants taken by numpy, in
    the operands' dtype."""
    draw = _operands(dtype, 4)
    q, ru, rv = draw(5, 4, 4), draw(4, 4), draw(5, 4, 4)
    shape = (5, 4, 4)
    want = np.stack(
        [
            signs[l] * np.linalg.det(np.stack([np.broadcast_to(np.eye(4)[l], shape), q, np.broadcast_to(ru, shape), rv], -2))
            for l in range(4)
        ],
        axis=-1,
    )
    got = _raw_normal(_quadric_model(signs), q, ru, rv)
    assert got.dtype == want.dtype
    assert _rel(got, want) <= PARITY_BOUND


def _with_jet(s, ab, jet):
    jets = dict(s.jets)
    jets[ab] = jet
    return dataclasses.replace(s, jets=jets)


def test_a_nan_reaches_the_guard_that_names_its_node(torus):
    """A NaN skips no guard on the fast path: check_immersion names the
    partial and the node; the forms carry it into h, and curvature_scalars
    names the node of H; spectral jets name the node of the position."""
    bad = torus.jets[(0, 2)].copy()
    bad[3, 5, 1] = np.nan
    s = _with_jet(torus, (0, 2), bad)
    with pytest.raises(ConfigError, match=r"non-finite position partial \(0, 2\) at node \(3, 5\)"):
        check_immersion(s, "nan torus")
    with pytest.raises(GuardViolation, match=r"curvature scalar H = nan is not finite at node \(3, 5\)") as err:
        curvature_scalars(s)
    assert err.value.node == (3, 5)
    x = torus.positions.copy()
    x[7, 2, 0] = np.nan
    with pytest.raises(ConfigError, match=r"nan map: non-finite position at node \(7, 2\)"):
        numeric_jets(lambda U, V: x, torus.domain, "nan map")


def test_finite_values_whose_sum_overflows_are_accepted(torus):
    """The one-sum test clears finite arrays; a sum that overflows although
    every entry is finite falls through to the per-node search, which
    accepts it (and still names a node that is not finite)."""
    big = np.full((8, 8, 3), 1e308)
    assert _nonfinite_node(big) is None
    big[2, 6, 1] = -np.inf
    assert _nonfinite_node(big) == (2, 6)
    assert _nonfinite_node(torus.positions) is None
    check_immersion(_with_jet(torus, (4, 0), np.full(torus.shape + (3,), 1e308)))


PER_NODE_MODULES = ("curvature", "calculus", "surface", "spaceform", "variations", "pwillmore")

# numpy runs each of these on the trailing axes of per-node arrays as a
# short loop per node, whatever name the code reaches it by
FORBIDDEN_NAMES = ("einsum", "cross", "norm")
TRAILING_BLOCK_AXES = ("(-2, -1)", "(-1, -2)")
# these lay trailing entry axes out node-major, each entry a strided plane,
# when stacking along a negative axis or allocating ``shape + (2, ...)``
STACKS = ("stack",)
ALLOCATIONS = ("empty", "zeros")


def _node_major(node: ast.Call):
    """What the call builds node-major, or None: np.stack along a negative
    axis, or np.empty / np.zeros of a shape with a tuple appended."""
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else func.id if isinstance(func, ast.Name) else None
    if name in STACKS:
        axis = [kw.value for kw in node.keywords if kw.arg == "axis"] + node.args[1:2]
        if axis and ast.unparse(axis[0]).startswith("-"):
            return f"{ast.unparse(func)}(..., axis={ast.unparse(axis[0])})"
    if name in ALLOCATIONS:
        shape = [kw.value for kw in node.keywords if kw.arg == "shape"] + node.args[:1]
        if shape and isinstance(shape[0], ast.BinOp) and isinstance(shape[0].right, ast.Tuple):
            return f"{ast.unparse(func)}(... + {ast.unparse(shape[0].right)})"
    return None


def _per_node_loops(source: str) -> list:
    """(line, what) for each per-node loop in ``source``: every line that
    mentions einsum, comments and docstrings included; in the code, every
    attribute, bare name, imported name or string constant (as passed to
    getattr) in FORBIDDEN_NAMES; every call that takes (-2, -1) as a
    positional or ``axis`` argument; and every node-major construction
    (``_node_major``)."""
    hits = {(i + 1, "einsum") for i, line in enumerate(source.splitlines()) if re.search(r"\beinsum\b", line)}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            name = None
        if isinstance(name, str) and name in FORBIDDEN_NAMES:
            hits.add((node.lineno, name))
        if isinstance(node, ast.Call):
            for arg in node.args + [kw.value for kw in node.keywords if kw.arg == "axis"]:
                if ast.unparse(arg) in TRAILING_BLOCK_AXES:
                    hits.add((node.lineno, ast.unparse(node.func) + f"(..., {ast.unparse(arg)})"))
            what = _node_major(node)
            if what is not None:
                hits.add((node.lineno, what))
    return sorted(hits)


def test_per_node_rule_sees_each_forbidden_call():
    """The rule's own check: it finds each forbidden form in code, under
    any spelling, and einsum on any line; the other names may appear in a
    docstring. Stacking along axis 0 and allocating entry axes first, or
    through ``_empty_planes``, pass."""
    source = '''"""np.cross and np.linalg.norm in a docstring"""
from numpy import einsum, cross as cr
from numpy.linalg import norm
import numpy.linalg as la
a = np.einsum("...ij,...jk->...ik", x, y)
b = einsum("...ij,...jk->...ik", x, y)
c = getattr(np, "einsum")
d = np.cross(x, y)
e = numpy.cross(x, y)
f = np.linalg.norm(x, axis=-1)
g = numpy.linalg.norm(x, axis=-1) + la.norm(x) + norm(x)
h = np.sum(x * y, axis=(-2, -1))
k = (x * y).sum(axis=(-1, -2))
m = np.sum(x * y, (-2, -1))
# einsum in a comment
n = np.swapaxes(x, -2, -1)
p = np.stack([x, y], axis=-1)
q = numpy.stack((x, y), -2) + stack([x, y], axis=-1)
r = np.empty(shape + (2, 2))
s = np.zeros(x.shape[:2] + (2,), dtype=complex) + zeros(shape=shape + (2, 2, 2))
t = np.stack([x, y]) + np.stack([x, y], axis=0)
w = np.empty((2, 2) + shape) + np.empty(shape[-1:] + shape[:-1]) + np.zeros(shape)
z = _empty_planes(shape + (2, 2), float, 2)
'''
    assert sorted({line for line, _ in _per_node_loops(source)}) == [2, 3] + list(range(5, 16)) + [17, 18, 19, 20]


@pytest.mark.parametrize("module", PER_NODE_MODULES)
def test_no_einsum_in_per_node_code(module):
    """Per-node arrays are combined by the kernels, entry by entry; no
    einsum, np.cross, np.linalg.norm or sum over the trailing (2, 2) axes,
    and no per-node tensor built node-major (np.stack along a trailing
    axis, np.empty or np.zeros of ``shape + (2, ...)``).

    numpy runs those as a generic loop over the tiny trailing axes. At
    128x64 nodes on a 2-core machine, "...ik,...kj->...ij" by einsum took
    2.1 ms; g_inv @ h by batched matmul takes 0.44-0.53 ms and the four
    entries written out 0.16 ms; np.sum over axis=(-2, -1) 0.21 ms against
    0.05 ms; np.cross 0.42 ms against 0.095 ms. gridops keeps its einsums,
    which apply dense difference matrices along a grid axis.
    """
    path = Path(__file__).resolve().parents[1] / "src" / "curvevar" / f"{module}.py"
    hits = _per_node_loops(path.read_text())
    assert not hits, f"per-node loops in curvevar/{module}.py: {hits}"


def _trilinear_quadric_normal(signs, q, ru, rv):
    """The 4-d normal as one map linear in each of q, r_u and r_v, its 2x2
    minors rebuilt on every call: the expansion the minors jet replaced."""
    m = {(i, j): ru[..., i] * rv[..., j] - ru[..., j] * rv[..., i] for i in range(4) for j in range(i + 1, 4)}
    out = np.empty(np.broadcast_shapes(q.shape, ru.shape, rv.shape), np.result_type(q, ru, rv))
    for l in range(4):
        a, b, c = (i for i in range(4) if i != l)
        w = q[..., a] * m[b, c] - q[..., b] * m[a, c] + q[..., c] * m[a, b]
        np.multiply(w, (-1.0) ** l * signs[l], out=out[..., l])
    return out


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("signs", [(1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, -1.0)])
def test_minors_jet_normal_matches_trilinear_expansion(signs, dtype):
    """The 4-d normal jet built as a bilinear jet of the minors of (r_u,
    r_v), then a bilinear map of (q, minors), equals the Leibniz rule
    applied to the trilinear map, in the operands' dtype."""
    from functools import partial

    draw = _operands(dtype, 5)
    q, ru, rv = (Taylor2([draw(5, 4, 4) for _ in range(6)]) for _ in range(3))
    got = _raw_normal(_quadric_model(signs), q, ru, rv)
    want = multilinear(partial(_trilinear_quadric_normal, np.array(signs)), q, ru, rv)
    for x, y in zip(got.parts, want.parts):
        assert x.dtype == y.dtype
        assert _rel(x, y) <= PARITY_BOUND


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("sf", [SpaceForm.euclidean(), SpaceForm.sphere(1.0), SpaceForm.hyperbolic(1.0)], ids=lambda sf: sf.model.name)
def test_flat_inner_and_induced_metric_keep_the_operands_dtype(sf, dtype):
    """flat_inner, and the metric built from it, take the operands' dtype:
    complex jets keep their imaginary part (a complex-step derivative reads
    it), against the einsum form with the metric signs."""
    from curvevar import PatchDomain
    from curvevar.surface import SurfaceSample

    draw = _operands(dtype, 6)
    dim, signs = sf.ambient_dim, sf.metric_signs
    x, y = draw(8, 8, dim), draw(8, 8, dim)
    got = sf.flat_inner(x, y)
    assert got.dtype == np.dtype(dtype)
    assert _rel(got, _inner(signs, x, y)) <= PARITY_BOUND
    jets = {(0, 0): draw(8, 8, dim), (1, 0): x, (0, 1): y}
    g = _metric_block(SurfaceSample(PatchDomain((0, 1), (0, 1), 8, 8), sf, jets))
    want = np.einsum("...ai,i,...bi->...ab", np.stack([x, y], -2), signs, np.stack([x, y], -2))
    assert g.dtype == np.dtype(dtype)
    assert _rel(g, want) <= PARITY_BOUND
    assert (np.max(np.abs(g.imag)) > 0.1) == (dtype is complex)


def _written_out(name, signs):
    """The map of each bilinear table written out in plain numpy, term by
    term in the table's order: the value kernels the tables replaced."""
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def inner(x, y):
        out = x[..., 0] * y[..., 0]
        for k in range(1, len(signs)):
            out = out + x[..., k] * y[..., k] if signs[k] > 0 else out - x[..., k] * y[..., k]
        return out

    def normal_from_minors(q, m):
        cols = []
        for l in range(4):
            a, b, c = (i for i in range(4) if i != l)
            w = q[..., a] * m[..., pairs.index((b, c))] - q[..., b] * m[..., pairs.index((a, c))]
            cols.append((w + q[..., c] * m[..., pairs.index((a, b))]) * ((-1.0) ** l * signs[l]))
        return np.stack(cols, axis=-1)

    return {
        "product": np.multiply,
        "times_vector": lambda a, x: a[..., None] * x,
        "flat_inner": inner,
        "cross": lambda x, y: np.stack([x[..., j] * y[..., k] - x[..., k] * y[..., j] for j, k in ((1, 2), (2, 0), (0, 1))], -1),
        "minors": lambda x, y: np.stack([x[..., i] * y[..., j] - x[..., j] * y[..., i] for i, j in pairs], -1),
        "normal_from_minors": normal_from_minors,
        "mat_mul": lambda x, y: np.stack(
            [np.stack([x[..., i, 0] * y[..., 0, j] + x[..., i, 1] * y[..., 1, j] for j in range(2)], -1) for i in range(2)], -2
        ),
        "vec_blocks": lambda x, t: np.stack(
            [np.stack([x[..., 0] * t[..., 0, i, j] + x[..., 1] * t[..., 1, i, j] for j in range(2)], -1) for i in range(2)], -2
        ),
    }[name]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("sf", [SpaceForm.euclidean(), SpaceForm.sphere(1.0), SpaceForm.hyperbolic(1.0)], ids=lambda sf: sf.model.name)
def test_bilinear_tables_match_multilinear_bit_for_bit(sf, dtype):
    """Each bilinear table's jet (Taylor2.bilinear) equals, bit for bit and
    in every slot, the reference ``multilinear`` of its map written out in
    plain numpy, and its value path equals that map; one in four operand
    entries is exactly zero, so signed zeros are compared too. The tables
    span scalar, vector and 2x2 values and operands up to (2, 2, 2) blocks."""
    from curvevar.curvature import _times_vector
    from curvevar.surface import _minors, _normal_from_minors

    dim, signs = sf.ambient_dim, sf.metric_signs
    draw, mask = _operands(dtype, 8), np.random.default_rng(9)

    def jet(*shape):
        return Taylor2([np.where(mask.random(shape) < 0.25, 0.0, draw(*shape)) for _ in range(6)])

    tables = [("product", _PRODUCT, (), ()), ("times_vector", _times_vector(dim), (), (dim,))]
    tables.append(("flat_inner", sf._inner_map, (dim,), (dim,)))
    tables += [("mat_mul", _MAT_MUL, (2, 2), (2, 2)), ("vec_blocks", _VEC_BLOCKS, (2,), (2, 2, 2))]
    if dim == 3:
        tables.append(("cross", _cross, (3,), (3,)))
    else:
        tables += [("minors", _minors, (4,), (4,)), ("normal_from_minors", _normal_from_minors(signs), (4,), (6,))]
    for name, table, x_axes, y_axes in tables:
        x, y = jet(5, 4, *x_axes), jet(5, 4, *y_axes)
        ref = _written_out(name, signs)
        got, want = Taylor2.bilinear(table, x, y), multilinear(ref, x, y)
        for slot, (a, b) in enumerate(zip(got.parts, want.parts)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (name, slot)
        value = table(x.value, y.value)
        assert value.dtype == want.value.dtype and value.tobytes() == want.value.tobytes(), name


@pytest.mark.parametrize("sf", [SpaceForm.euclidean(), SpaceForm.sphere(1.0), SpaceForm.hyperbolic(1.0)], ids=lambda sf: sf.model.name)
def test_metric_derivatives_keep_the_jets_dtype(sf):
    """The first-kind Christoffel symbols <r_ab, r_l> take the dtype of the
    immersion jets: on complex jets (a complex-step derivative) they keep
    their imaginary part, against half the combination of the metric
    derivatives dg by einsum, with the metric signs."""
    from curvevar import PatchDomain
    from curvevar.curvature import FundamentalForms
    from curvevar.surface import SurfaceSample

    draw, signs = _operands(complex, 10), sf.metric_signs
    jets = {ab: draw(8, 8, sf.ambient_dim) for ab in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))}
    s = SurfaceSample(PatchDomain((0, 1), (0, 1), 8, 8), sf, jets)
    g = _metric_block(s)
    ff = FundamentalForms(g, np.linalg.inv(g), g, jets[(0, 0)], np.ones(s.shape), jets, sf.flat_inner)

    def r(*ab):
        return jets[tuple(map(sum, zip((0, 0), *ab)))]

    dg = np.empty(s.shape + (2, 2, 2), complex)
    for k, ek in enumerate(_E):
        for a, ea in enumerate(_E):
            for b, eb in enumerate(_E):
                dg[..., k, a, b] = _inner(signs, r(ea, ek), r(eb)) + _inner(signs, r(ea), r(eb, ek))
    want = 0.5 * (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg)
    got = ff.christoffel
    assert got.dtype == np.dtype(complex)
    assert _rel(got, want) <= PARITY_BOUND
    assert np.max(np.abs(got.imag)) > 0.1
