"""Fundamental forms, Christoffel symbols, and curvature scalars.

Everything is computed per node from the immersion jets, vectorized over
the whole grid; arrays carry the grid shape in their leading two axes.
Per-node tensors keep their index axes trailing, (..., 2, 2) for g, g^-1
and h and (..., 2, 2, 2) for Gamma and dg, and are combined with batched
``@`` on those axes (a Christoffel symbol as a (2, 4) block); ambient
inner products are ``SpaceForm.flat_inner``, (x * y) @ signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, DegenerateMetricError, GuardViolation
from .surface import SurfaceSample, _eps_normal, _quadric_normal, _require_jets, induced_metric

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
    def multilinear(fn, *args: "Taylor2") -> "Taylor2":
        """Jet of fn(x1, ..., xn) for fn linear in each argument (Leibniz rule)."""
        n = len(args)

        def term(picks):
            return fn(*(x.parts[picks.get(i, 0)] for i, x in enumerate(args)))

        out = [term({})] + [sum(term({i: d}) for i in range(n)) for d in (1, 2)]
        for slot, d1, d2 in _SECOND:
            pairs = sum(term({i: d1, j: d2}) for i in range(n) for j in range(n) if i != j)
            out.append(sum(term({i: slot}) for i in range(n)) + pairs)
        return Taylor2(out)

    def __add__(self, other) -> "Taylor2":
        if isinstance(other, Taylor2):
            return Taylor2(x + y for x, y in zip(self.parts, other.parts))
        return Taylor2((self.parts[0] + other,) + self.parts[1:])

    __radd__ = __add__

    def __neg__(self) -> "Taylor2":
        return Taylor2(-x for x in self.parts)

    def __sub__(self, other) -> "Taylor2":
        return self + (-other)

    def __mul__(self, other) -> "Taylor2":
        if isinstance(other, Taylor2):
            return Taylor2.multilinear(np.multiply, self, other)
        return Taylor2(other * x for x in self.parts)

    __rmul__ = __mul__

    def times_vector(self, vec: "Taylor2") -> "Taylor2":
        """Jet of this scalar quantity times the vector quantity ``vec``."""
        return Taylor2.multilinear(lambda a, x: a[..., None] * x, self, vec)

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


@dataclass
class FundamentalForms:
    """g, g^-1, shape operator components h, unit normal N, Christoffels."""

    g: np.ndarray          # (nu, nv, 2, 2)
    g_inv: np.ndarray      # (nu, nv, 2, 2)
    h: np.ndarray          # (nu, nv, 2, 2)
    N: np.ndarray          # (nu, nv, dim)
    gamma: np.ndarray      # (nu, nv, 2, 2, 2): gamma[..., k, i, j] = Gamma^k_ij
    dS_weight: np.ndarray  # (nu, nv): sqrt(det g)
    dg: np.ndarray         # (nu, nv, 2, 2, 2): dg[..., k, i, j] = d_k g_ij


@dataclass
class CurvatureScalars:
    H: np.ndarray
    K_E: np.ndarray
    K: np.ndarray
    h_norm_sq: np.ndarray
    kappa1: np.ndarray
    kappa2: np.ndarray


def _times_blocks(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """a @ t over the first index of t, t of shape (..., 2, 2, 2): the
    contraction a^k_l t^l_ij, as a (2, 2) @ (2, 4) product per node."""
    out = a @ t.reshape(t.shape[:-2] + (4,))
    return out.reshape(out.shape[:-1] + (2, 2))


def _metric_jets(sample: SurfaceSample) -> tuple:
    """Order-2 jets of g_00, g_01, g_11; order-3 immersion jets suffice."""
    if "metric_jets" not in sample._cache:
        inner = partial(Taylor2.multilinear, sample.sf.flat_inner)
        ru, rv = (Taylor2.from_jets(sample.jets, e) for e in _E)
        sample._cache["metric_jets"] = (inner(ru, ru), inner(ru, rv), inner(rv, rv))
    return sample._cache["metric_jets"]


def _normal_jets(sample: SurfaceSample) -> tuple:
    """Order-2 jets (n, 1/|n|) of the unnormalised normal n, in the raw
    orientation, and of its inverse norm, from the order-3 immersion jets.
    ``normal_jet`` and ``curvature_jets`` both read them."""
    if "normal_jets" not in sample._cache:
        sf, jets = sample.sf, sample.jets
        inner = partial(Taylor2.multilinear, sf.flat_inner)
        ru, rv = (Taylor2.from_jets(jets, e) for e in _E)
        if sf.ambient_dim == 3:
            n = Taylor2.multilinear(np.cross, ru, rv)
        else:
            n = Taylor2.multilinear(partial(_quadric_normal, sf.metric_signs), Taylor2.from_jets(jets), ru, rv)
        sample._cache["normal_jets"] = (n, inner(n, n).sqrt().reciprocal())
    return sample._cache["normal_jets"]


def normal_jet(sample: SurfaceSample) -> Taylor2:
    """Order-2 jet of the unit normal in the sample's orientation."""
    _require_jets(sample, 3, "normal_jet")
    n, inv_norm = _normal_jets(sample)
    return sample.orientation_sign * inv_norm.times_vector(n)


def curvature_jets(sample: SurfaceSample) -> tuple:
    """Order-2 Taylor jets (H, K_E) in the sample's orientation, pushed
    through g, the normal and h from the order-4 immersion jets."""
    _require_jets(sample, 4, "curvature_jets")
    if "curvature_jets" not in sample._cache:
        sf, jets = sample.sf, sample.jets
        inner = partial(Taylor2.multilinear, sf.flat_inner)
        n, inv_norm = _normal_jets(sample)
        h00, h01, h11 = (inner(n, Taylor2.from_jets(jets, e)) * inv_norm for e in ((2, 0), (1, 1), (0, 2)))
        g00, g01, g11 = _metric_jets(sample)
        inv_det = (g00 * g11 - g01 * g01).reciprocal()
        h_raw = 0.5 * (g11 * h00 - 2.0 * (g01 * h01) + g00 * h11) * inv_det
        k_e = (h00 * h11 - h01 * h01) * inv_det
        # cached in the raw orientation of the normal, so valid for any sign
        sample._cache["curvature_jets"] = (h_raw, k_e)
    h_raw, k_e = sample._cache["curvature_jets"]
    return sample.orientation_sign * h_raw, k_e


def fundamental_forms(sample: SurfaceSample) -> FundamentalForms:
    """First and second fundamental forms with the sample's orientation."""
    if "forms" in sample._cache:
        return sample._cache["forms"]
    inner = sample.sf.flat_inner
    j = sample.jets
    r = [j[e] for e in _E]
    g = induced_metric(sample)
    dg = np.empty(sample.shape + (2, 2, 2))  # dg[..., k, i, j] = d_k g_ij
    for a in range(2):
        for b in range(a, 2):
            for k in range(2):
                # d_k <r_a, r_b> = <r_ak, r_b> + <r_a, r_bk>: order-2 jets suffice
                r_ak, r_bk = j[_add(_E[a], _E[k])], j[_add(_E[b], _E[k])]
                dg[..., k, a, b] = dg[..., k, b, a] = inner(r_ak, r[b]) + inner(r[a], r_bk)
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    if np.any(det <= 0):
        i, jj = np.unravel_index(np.argmin(det), det.shape)
        raise DegenerateMetricError(f"degenerate metric at node ({i}, {jj})", node=(int(i), int(jj)))
    g_inv = np.empty_like(g)
    g_inv[..., 0, 0] = g[..., 1, 1] / det
    g_inv[..., 1, 1] = g[..., 0, 0] / det
    g_inv[..., 0, 1] = g_inv[..., 1, 0] = -g[..., 0, 1] / det

    N = sample.orientation_sign * _eps_normal(sample.sf, j[(0, 0)], j[(1, 0)], j[(0, 1)])
    h = np.empty_like(g)
    for a in range(2):
        for b in range(2):
            h[..., a, b] = inner(N, j[_add(_E[a], _E[b])])

    c = np.empty_like(dg)  # c[..., l, i, j] = dg_jl,i + dg_il,j - dg_ij,l
    for l in range(2):
        for a in range(2):
            for b in range(2):
                c[..., l, a, b] = dg[..., a, b, l] + dg[..., b, a, l] - dg[..., l, a, b]
    gamma = 0.5 * _times_blocks(g_inv, c)

    ff = FundamentalForms(g=g, g_inv=g_inv, h=h, N=N, gamma=gamma, dS_weight=np.sqrt(det), dg=dg)
    sample._cache["forms"] = ff
    return ff


def curvature_scalars(sample: SurfaceSample) -> CurvatureScalars:
    if "scalars" in sample._cache:
        return sample._cache["scalars"]
    ff = fundamental_forms(sample)
    sf = sample.sf
    # overflow is reported below, naming the scalar and the node
    with np.errstate(over="ignore", invalid="ignore"):
        shape_op = ff.g_inv @ ff.h
        H = 0.5 * (shape_op[..., 0, 0] + shape_op[..., 1, 1])
        K_E = (ff.h[..., 0, 0] * ff.h[..., 1, 1] - ff.h[..., 0, 1] ** 2) / ff.dS_weight**2
        # |h|^2 = g^ik g^jl h_ij h_kl = tr(S S) with S = g^-1 h
        h_norm_sq = np.sum(shape_op * np.swapaxes(shape_op, -1, -2), axis=(-2, -1))
    for name, x in (("H", H), ("K_E", K_E), ("|h|^2", h_norm_sq)):
        bad = ~np.isfinite(x)
        if np.any(bad):
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise GuardViolation(
                f"{sample.name}: curvature scalar {name} = {x[i, j]} is not finite at node ({i}, {j})",
                node=(int(i), int(j)),
            )
    K = K_E + sf.k0
    disc = np.sqrt(np.maximum(H**2 - K_E, 0.0))
    cs = CurvatureScalars(H=H, K_E=K_E, K=K, h_norm_sq=h_norm_sq, kappa1=H + disc, kappa2=H - disc)
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
    ops = sample.chart_ops()
    dN = [ops.partial(ff.N, 1, 0), ops.partial(ff.N, 0, 1)]
    out = np.empty(sample.shape + (2, 2, 2))
    for k in range(2):
        for a in range(2):
            for b in range(2):
                rab = j[_add(_E[a], _E[b])]
                rabk = j[_add(_add(_E[a], _E[b]), _E[k])]
                out[..., k, a, b] = inner(dN[k], rab) + inner(ff.N, rabk)
    return out


def codazzi_residual(sample: SurfaceSample) -> np.ndarray:
    """Max-norm Codazzi defect per node: nabla_k h_ij - nabla_j h_ik.

    In a space form the ambient curvature adds nothing to the Codazzi
    equation, so the residual of any genuine immersion is numerically zero.
    """
    ff = fundamental_forms(sample)
    dh = shape_operator_derivatives(sample)
    grad = np.empty_like(dh)  # grad[..., k, i, j] = nabla_k h_ij
    for k in range(2):
        for a in range(2):
            for b in range(2):
                corr = sum(
                    ff.gamma[..., m, a, k] * ff.h[..., m, b] + ff.gamma[..., m, b, k] * ff.h[..., a, m]
                    for m in range(2)
                )
                grad[..., k, a, b] = dh[..., k, a, b] - corr
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
    det_g = E * G - F * F
    # det [[a, b, c], [d, E, F], [e, F, G]] - det [[0, p, q], [p, E, F], [q, F, G]]
    det_a = a * det_g - b * (d * G - F * e) + c * (d * F - E * e)
    p, q = 0.5 * E_v, 0.5 * G_u
    det_b = -p * p * G + 2.0 * p * q * F - q * q * E
    return (det_a - det_b) / det_g**2
