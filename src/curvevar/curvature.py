"""Fundamental forms, Christoffel symbols, and curvature scalars.

Everything is computed per node from the immersion jets, vectorized over
the whole grid; arrays carry the grid shape in their leading two axes.
Per-node tensors keep their index axes trailing in shape, (..., 2, 2) for
g, g^-1 and h and (..., 2, 2, 2) for the Christoffel symbols, but are laid
out entry-major: each entry x[..., i, j] is one contiguous grid plane
(``surface._empty_planes``), as each component x[..., k] of an ambient
vector is.

The surface geometry is one set of formulas: g from (r_u, r_v), the
oriented unit normal N = +-n/|n| from the raw normal n, h_ab = <N, r_ab>,
the first-kind Christoffel symbols Gamma_l,ab = <r_ab, r_l> (the ambient
inner product is flat), and (H, K_E) from the entries of g and h. Each is
written once and evaluated either on grid values (``fundamental_forms``,
``curvature_scalars``) or on order-2 ``Taylor2`` jets (``_metric_jets``,
``normal_jet``, ``curvature_jets``), so the value part of every jet equals
the grid value bit for bit. A sample caches one normal jet, the oriented
N, which the deformation and the curvature jets share; a flipped sample
builds its own.

Every per-node bilinear map is one table of +-x_a y_b terms per entry of
its value (``surface._Bilinear``): the 2x2 algebra below and in
``calculus`` (the Codazzi terms, the operators), the product, a scalar
times a vector, ``SpaceForm.flat_inner``, the cross product, the 2x2
minors and the 4-d normal from them, and the quadratic form of an
``AmbientPolyField``. A table writes each entry with whole-grid ufuncs,
where batched ``@``, ``np.sum`` over the trailing (2, 2) axes or
``np.cross`` run a short loop per node; called on arrays it gives the
value, and ``Taylor2.bilinear`` writes its order-2 jet in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ConfigError, DegenerateMetricError, GuardViolation, _first_node
from .surface import (
    SurfaceSample,
    _Bilinear,
    _cross,
    _empty_planes,
    _inner_form,
    _minors,
    _nonfinite_node,
    _require_jets,
)

_E = [(1, 0), (0, 1)]


def _add(ab, cd):
    return (ab[0] + cd[0], ab[1] + cd[1])


# the chart partials a Taylor2 jet carries, in storage order
TAYLOR_INDICES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
# each second-order slot with the two first-order slots whose product feeds it
_SECOND = ((3, 1, 1), (4, 1, 2), (5, 2, 2))


class Taylor2:
    """Order-2 bivariate Taylor jet over the grid.

    ``parts`` holds a grid quantity and its chart partials d_u, d_v, d_uu,
    d_uv, d_vv, in the order of TAYLOR_INDICES; axes after the two grid
    axes (vector components) are carried along. Arithmetic follows the
    truncated Taylor rules (Griewank & Walther, Evaluating Derivatives,
    2nd ed., ch. 13), vectorized over the grid.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    @classmethod
    def from_partials(cls, partial_fn) -> "Taylor2":
        """Jet from a callable (a, b) -> d^a_u d^b_v of the quantity."""
        return cls(partial_fn(a, b) for a, b in TAYLOR_INDICES)

    @classmethod
    def from_jets(cls, jets: dict, base=(0, 0)) -> "Taylor2":
        """Jet of the immersion partial ``base``, read from immersion jets."""
        return cls.from_partials(lambda a, b: jets[(base[0] + a, base[1] + b)])

    @property
    def value(self) -> np.ndarray:
        return self.parts[0]

    def partial(self, a: int, b: int) -> np.ndarray:
        if a + b > 2:
            raise ConfigError("Taylor jets carry chart partials to order 2 only")
        return self.parts[TAYLOR_INDICES.index((a, b))]

    @staticmethod
    def bilinear(fn: _Bilinear, x: "Taylor2", y: "Taylor2") -> "Taylor2":
        """Jet of fn(x, y) for a bilinear map given as its table, by the
        Leibniz rule, written in place: the six parts go into one array and
        each Leibniz term is formed whole in a scratch plane. A part sums
        its terms with x's partial of the higher slot first; a product of
        two first-order partials enters d_uu and d_vv once, doubled."""
        xp, yp = [fn.planes(p, 0) for p in x.parts], [fn.planes(p, 1) for p in y.parts]
        lead = np.broadcast_shapes(*(p[0].shape for p in xp + yp))
        dtype = np.result_type(*x.parts, *y.parts)
        parts = fn.empty((6,) + lead, dtype)
        scratch, t, t2 = (np.empty(lead, dtype) for _ in range(3))

        def term(c, i, j, dst):  # component c of fn(x_i, y_j)
            fn.write(c, xp[i], yp[j], dst, scratch)

        for c in range(len(fn.rows)):
            out = [fn.plane(part, c) for part in parts]
            term(c, 0, 0, out[0])
            for d in (1, 2):
                term(c, d, 0, out[d])
                term(c, 0, d, t)
                out[d] += t
            for slot, d1, d2 in _SECOND:
                term(c, slot, 0, out[slot])
                term(c, 0, slot, t)
                out[slot] += t
                term(c, d1, d2, t)
                if d1 == d2:
                    t *= 2.0
                else:
                    term(c, d2, d1, t2)
                    t += t2
                out[slot] += t
        return Taylor2(parts)

    def __add__(self, other) -> "Taylor2":
        if isinstance(other, Taylor2):
            return Taylor2(x + y for x, y in zip(self.parts, other.parts))
        return Taylor2((self.parts[0] + other,) + self.parts[1:])

    __radd__ = __add__

    def __neg__(self) -> "Taylor2":
        return Taylor2(-x for x in self.parts)

    def __sub__(self, other) -> "Taylor2":
        if isinstance(other, Taylor2):
            return Taylor2(x - y for x, y in zip(self.parts, other.parts))
        return Taylor2((self.parts[0] - other,) + self.parts[1:])

    def __mul__(self, other) -> "Taylor2":
        if isinstance(other, Taylor2):
            return Taylor2.bilinear(_PRODUCT, self, other)
        return Taylor2(other * x for x in self.parts)

    __rmul__ = __mul__

    def times_vector(self, vec: "Taylor2") -> "Taylor2":
        """Jet of this scalar quantity times the vector quantity ``vec``."""
        return Taylor2.bilinear(_times_vector(vec.value.shape[-1]), self, vec)

    def compose(self, g0, g1, g2) -> "Taylor2":
        """G(x) from G, G' and G'' evaluated at the value of x."""
        p = self.parts
        out = [g0, g1 * p[1], g1 * p[2]]
        for slot, i, j in _SECOND:
            out.append(g2 * p[i] * p[j] + g1 * p[slot])
        return Taylor2(out)

    def reciprocal(self) -> "Taylor2":
        r = 1.0 / self.value
        return self.compose(r, -r * r, 2.0 * r * r * r)

    def sqrt(self) -> "Taylor2":
        r = np.sqrt(self.value)
        return self.compose(r, 0.5 / r, -0.25 / (r * self.value))

    @staticmethod
    def compose2(H: "Taylor2", K: "Taylor2", G, G_H, G_K, G_HH, G_HK, G_KK) -> "Taylor2":
        """G(H, K) from the partials of G evaluated at the values of H, K."""
        h, k = H.parts, K.parts
        out = [G, G_H * h[1] + G_K * k[1], G_H * h[2] + G_K * k[2]]
        for slot, i, j in _SECOND:
            out.append(
                G_HH * h[i] * h[j]
                + G_HK * (h[i] * k[j] + k[i] * h[j])
                + G_KK * k[i] * k[j]
                + G_H * h[slot]
                + G_K * k[slot]
            )
        return Taylor2(out)


class FundamentalForms:
    """g, g^-1, shape operator components h, unit normal N and the area
    weight sqrt(det g) of a sample. The first-kind Christoffel symbols are
    computed on first read, in the dtype of the immersion jets, and then
    kept: only the covariant Hessian and the Codazzi check read them. g,
    g^-1, h and the symbols are laid out entry-major, each entry one
    contiguous grid plane; N component-major."""

    def __init__(self, g, g_inv, h, N, dS_weight, jets: dict, inner):
        self.g = g                  # (nu, nv, 2, 2)
        self.g_inv = g_inv          # (nu, nv, 2, 2)
        self.h = h                  # (nu, nv, 2, 2)
        self.N = N                  # (nu, nv, dim)
        self.dS_weight = dS_weight  # (nu, nv)
        # the order <= 2 immersion jets and the ambient inner product the
        # symbols are built from (not the sample, which caches this object)
        self._jets, self._inner = jets, inner

    @cached_property
    def christoffel(self) -> np.ndarray:
        """(nu, nv, 2, 2, 2): christoffel[..., l, a, b] = Gamma_l,ab = <r_ab, r_l>,
        exactly 1/2 (d_a g_bl + d_b g_al - d_l g_ab) since the ambient inner
        product is flat; six inner products of the order-2 jets, in their dtype."""
        j, inner = self._jets, self._inner
        out = _empty_planes(self.g.shape[:-2] + (2, 2, 2), np.result_type(*(j[ab] for ab in TAYLOR_INDICES[1:])), 3)
        for l in range(2):
            for a, b in ((0, 0), (0, 1), (1, 1)):
                out[..., l, a, b] = out[..., l, b, a] = inner(j[_add(_E[a], _E[b])], j[_E[l]])
        return out


@dataclass
class CurvatureScalars:
    H: np.ndarray
    K_E: np.ndarray
    K: np.ndarray
    h_norm_sq: np.ndarray


# -- per-node tables -----------------------------------------------------------
# Every per-node product is one bilinear table (``surface._Bilinear``); l is
# summed over, left to right.

_R2 = range(2)
# the product of two grid scalars
_PRODUCT = _Bilinear({(): [(1, (), ())]})
# the matrix product of 2x2 blocks, (a b)_ij = a_il b_lj
_MAT_MUL = _Bilinear({(i, j): [(1, (i, l), (l, j)) for l in _R2] for i in _R2 for j in _R2})
# a matrix product known to be symmetric, its (1, 0) entry the (0, 1) one
_SYM_MAT_MUL = _Bilinear({(i, j): [(1, (min(i, j), l), (l, max(i, j))) for l in _R2] for i in _R2 for j in _R2})
# a 2x2 block times a 2-vector, (a x)_i = a_il x_l
_MAT_VEC = _Bilinear({(i,): [(1, (i, l), (l,)) for l in _R2] for i in _R2})
# a covector times a (2, 2, 2) block in its first index, x_l t_lij
_VEC_BLOCKS = _Bilinear({(i, j): [(1, (l,), (l, i, j)) for l in _R2] for i in _R2 for j in _R2})
# the sum of a_ij b_ij over 2x2 blocks
_FROBENIUS = _Bilinear({(): [(1, (i, j), (i, j)) for i in _R2 for j in _R2]})
# the dot product x_i y_i of 2-vectors
_DOT2 = _inner_form((1, 1))
# the Christoffel terms of the covariant derivative nabla_k h_ab in the
# first-kind symbols and the shape operator S = g^-1 h,
# sum over l of Gamma_l,ak S^l_b + Gamma_l,bk S^l_a
_CODAZZI = _Bilinear(
    {
        (k, a, b): [(1, (l, a, k), (l, b)) for l in _R2] + [(1, (l, b, k), (l, a)) for l in _R2]
        for k in _R2
        for a in _R2
        for b in _R2
    }
)


@cache
def _times_vector(dim: int) -> _Bilinear:
    """A grid scalar times a dim-vector, one product per component."""
    return _Bilinear({(k,): [(1, (), (k,))] for k in range(dim)})


# -- the geometry pipeline -----------------------------------------------------
# Each formula below takes grid arrays or order-2 Taylor jets alike: its
# bilinear tables go through ``_apply``, the rest is arithmetic both carry.


def _apply(table: _Bilinear, x, y):
    """The bilinear map ``table`` of two grid arrays, or its order-2 jet of
    two Taylor2 jets."""
    return Taylor2.bilinear(table, x, y) if isinstance(x, Taylor2) else table(x, y)


def _reciprocal(x):
    return x.reciprocal() if isinstance(x, Taylor2) else 1.0 / x


def _metric(sf, ru, rv) -> tuple:
    """g_00, g_01, g_11 = <r_u, r_u>, <r_u, r_v>, <r_v, r_v>."""
    inner = sf._inner_map
    return _apply(inner, ru, ru), _apply(inner, ru, rv), _apply(inner, rv, rv)


def _det(g00, g01, g11):
    """det g from the entries of g."""
    return g00 * g11 - g01 * g01


def _raw_normal(sf, p, ru, rv):
    """The unnormalised normal n: r_u x r_v in E^3; in a 4-d model the
    cofactor expansion det(e_l, p, r_u, r_v), raised with the flat metric,
    in the 2x2 minors of (r_u, r_v) (p is the quadric direction there)."""
    if sf.ambient_dim == 3:
        return _apply(_cross, ru, rv)
    return _apply(sf._normal_map, p, _apply(_minors, ru, rv))


def _inverse_norm(sf, n, name: str):
    """1/|n| = <n, n>^(-1/2), with no modulus under the root. <n, n> (its
    real part, on complex jets) is positive wherever the metric passed its
    guard and the points lie on the model quadric; the first node where it
    is not is refused, naming it."""
    nn = _apply(sf._inner_map, n, n)
    bad = np.real(nn.value if isinstance(nn, Taylor2) else nn) <= 0
    if np.any(bad):
        raise ConfigError(f"{name}: the normal has <n, n> <= 0 at node {_first_node(bad)}, off the model quadric")
    return _reciprocal(nn.sqrt() if isinstance(nn, Taylor2) else np.sqrt(nn))


def _unit_normal(sf, sign, p, ru, rv, name: str):
    """The unit normal N = sign n/|n| in the orientation ``sign``."""
    n = _raw_normal(sf, p, ru, rv)
    return _apply(_times_vector(sf.ambient_dim), sign * _inverse_norm(sf, n, name), n)


def _second_form(sf, N, r_uu, r_uv, r_vv) -> tuple:
    """h_00, h_01, h_11 = <N, r_ab>."""
    return tuple(_apply(sf._inner_map, N, r) for r in (r_uu, r_uv, r_vv))


def _mean_and_gauss(g: tuple, h: tuple) -> tuple:
    """(H, K_E) from the entries (g_00, g_01, g_11) and (h_00, h_01, h_11):
    H = (g_11 h_00 - 2 g_01 h_01 + g_00 h_11) / (2 det g) and
    K_E = det h / det g."""
    (g00, g01, g11), (h00, h01, h11) = g, h
    inv_det = _reciprocal(_det(g00, g01, g11))
    return 0.5 * (g11 * h00 - 2.0 * (g01 * h01) + g00 * h11) * inv_det, _det(h00, h01, h11) * inv_det


def _symmetric_block(a00, a01, a11) -> np.ndarray:
    """The symmetric (..., 2, 2) array of three grid entries, entry-major."""
    out = _empty_planes(np.shape(a00) + (2, 2), np.result_type(a00, a01, a11), 2)
    out[..., 0, 0], out[..., 1, 1] = a00, a11
    out[..., 0, 1] = out[..., 1, 0] = a01
    return out


def _metric_jets(sample: SurfaceSample) -> tuple:
    """Order-2 jets of g_00, g_01, g_11, not cached (``curvature_jets`` and
    Brioschi read them once each); order-3 immersion jets suffice."""
    return _metric(sample.sf, *(Taylor2.from_jets(sample.jets, e) for e in _E))


def normal_jet(sample: SurfaceSample) -> Taylor2:
    """Order-2 jet of the unit normal in the sample's orientation, from the
    order-3 immersion jets; built on first read and cached, for the
    deformation and ``curvature_jets`` alike."""
    _require_jets(sample, 3, "normal_jet")
    if "normal_jet" not in sample._cache:
        r = (Taylor2.from_jets(sample.jets, ab) for ab in ((0, 0),) + tuple(_E))
        sample._cache["normal_jet"] = _unit_normal(sample.sf, sample.orientation_sign, *r, sample.name)
    return sample._cache["normal_jet"]


def curvature_jets(sample: SurfaceSample) -> tuple:
    """Order-2 Taylor jets (H, K_E) in the sample's orientation, pushed
    through g, the normal and h from the order-4 immersion jets; built on
    first read and cached like the forms."""
    _require_jets(sample, 4, "curvature_jets")
    if "curvature_jets" not in sample._cache:
        fundamental_forms(sample)  # the degeneracy guard, before anything divides by det g
        r2 = (Taylor2.from_jets(sample.jets, ab) for ab in ((2, 0), (1, 1), (0, 2)))
        h = _second_form(sample.sf, normal_jet(sample), *r2)
        sample._cache["curvature_jets"] = _mean_and_gauss(_metric_jets(sample), h)
    return sample._cache["curvature_jets"]


def fundamental_forms(sample: SurfaceSample) -> FundamentalForms:
    """First and second fundamental forms with the sample's orientation.
    The one metric guard names the node: it refuses a metric whose entries
    or det g overflow (``ConfigError``), then a degenerate one,
    det g / max|g|^2 <= 1e-12 (``DegenerateMetricError``)."""
    if "forms" in sample._cache:
        return sample._cache["forms"]
    sf, j = sample.sf, sample.jets
    # overflow is refused below, naming the node
    with np.errstate(over="ignore", invalid="ignore"):
        g00, g01, g11 = _metric(sf, j[(1, 0)], j[(0, 1)])
        det = _det(g00, g01, g11)
    # a non-finite entry of g leaves det g non-finite too
    node = _nonfinite_node(det)
    if node is not None:
        raise ConfigError(
            f"non-finite metric at node {node} in {sample.name}: g or det g overflows; rescale the surface"
        )
    g = _symmetric_block(g00, g01, g11)
    scale = max(float(np.max(np.abs(g))), np.finfo(float).tiny)
    bad = det / scale / scale <= 1e-12
    if np.any(bad):
        node = _first_node(bad)
        raise DegenerateMetricError(f"degenerate metric at node {node} in {sample.name}", node=node)
    g_inv = _symmetric_block(g11 / det, -g01 / det, g00 / det)

    N = _unit_normal(sf, sample.orientation_sign, j[(0, 0)], j[(1, 0)], j[(0, 1)], sample.name)
    h = _symmetric_block(*_second_form(sf, N, j[(2, 0)], j[(1, 1)], j[(0, 2)]))

    ff = FundamentalForms(g, g_inv, h, N, np.sqrt(det), j, sf.flat_inner)
    sample._cache["forms"] = ff
    return ff


def curvature_scalars(sample: SurfaceSample) -> CurvatureScalars:
    if "scalars" in sample._cache:
        return sample._cache["scalars"]
    ff = fundamental_forms(sample)
    # overflow is reported below, naming the scalar and the node
    with np.errstate(over="ignore", invalid="ignore"):
        H, K_E = _mean_and_gauss(*((x[..., 0, 0], x[..., 0, 1], x[..., 1, 1]) for x in (ff.g, ff.h)))
        h_norm_sq = 4.0 * H**2 - 2.0 * K_E  # kappa_1^2 + kappa_2^2
    for name, x in (("H", H), ("K_E", K_E), ("|h|^2", h_norm_sq)):
        node = _nonfinite_node(x)
        if node is not None:
            raise GuardViolation(
                f"{sample.name}: curvature scalar {name} = {x[node]} is not finite at node {node}",
                node=node,
            )
    cs = CurvatureScalars(H=H, K_E=K_E, K=K_E + sample.sf.k0, h_norm_sq=h_norm_sq)
    sample._cache["scalars"] = cs
    return cs


def shape_operator_derivatives(sample: SurfaceSample) -> np.ndarray:
    """Plain chart derivatives d_k h_ij, shape (..., 2, 2, 2).

    The normal derivative d_k N is measured by differentiating the sampled
    normal field on the grid (its ambient components are smooth chart
    scalars), so the result carries information independent of the closed
    Weingarten form and downstream identities are genuine checks rather
    than algebraic tautologies.
    """
    _require_jets(sample, 3, "shape_operator_derivatives")
    inner = sample.sf.flat_inner
    ff = fundamental_forms(sample)
    j = sample.jets
    dN = sample.chart_ops().jet(ff.N, 1)
    out = _empty_planes(sample.shape + (2, 2, 2), float, 3)
    for k in range(2):
        for a in range(2):
            for b in range(2):
                rab = j[_add(_E[a], _E[b])]
                rabk = j[_add(_add(_E[a], _E[b]), _E[k])]
                out[..., k, a, b] = inner(dN[_E[k]], rab) + inner(ff.N, rabk)
    return out


def codazzi_residual(sample: SurfaceSample) -> np.ndarray:
    """Max-norm Codazzi defect per node: nabla_k h_ij - nabla_j h_ik.

    In a space form the ambient curvature adds nothing to the Codazzi
    equation, so the residual of any genuine immersion is numerically zero.
    """
    ff = fundamental_forms(sample)
    # grad[..., k, i, j] = nabla_k h_ij, with the shape operator S = g^-1 h
    grad = shape_operator_derivatives(sample) - _CODAZZI(ff.christoffel, _MAT_MUL(ff.g_inv, ff.h))
    return np.max(np.abs(grad - np.swapaxes(grad, -3, -1)), axis=(-3, -2, -1))


def intrinsic_gauss_curvature(sample: SurfaceSample) -> np.ndarray:
    """Gauss curvature from the metric alone (Theorema Egregium route):
    Brioschi's formula in E, F, G = g_00, g_01, g_11 and their first and
    second chart partials, read from the order-2 metric jets."""
    _require_jets(sample, 3, "intrinsic_gauss_curvature")
    (E, E_u, E_v, _, _, E_vv), (F, F_u, F_v, _, F_uv, _), (G, G_u, G_v, G_uu, _, _) = (
        x.parts for x in _metric_jets(sample)
    )
    a = -0.5 * E_vv + F_uv - 0.5 * G_uu
    b, c = 0.5 * E_u, F_u - 0.5 * E_v
    d, e = F_v - 0.5 * G_u, 0.5 * G_v
    det_g = _det(E, F, G)
    # det [[a, b, c], [d, E, F], [e, F, G]] - det [[0, p, q], [p, E, F], [q, F, G]]
    det_a = a * det_g - b * (d * G - F * e) + c * (d * F - E * e)
    p, q = 0.5 * E_v, 0.5 * G_u
    det_b = -p * p * G + 2.0 * p * q * F - q * q * E
    return (det_a - det_b) / det_g**2
