"""Scalar/tensor fields on a sampled surface and intrinsic calculus.

Gradient, covariant Hessian, Laplace-Beltrami, tensor contractions, and
surface quadrature. A field's chart partials come from its order-2
Taylor jet when it has one (pushed through the immersion jets, multiplied
by closed-form window derivatives, or read from the derivatives of a
user's sympy chart expression); otherwise from grid differentiation,
which is FFT-based along periodic or pole-extendable directions. Fields
live on the grid: nothing evaluates them at other chart points (a
deformation reads their jets). Sympy is imported only when a field is
given as a sympy expression.

Per-node tensors keep their index axes trailing, as ``curvature`` lays
them out: a covector is (..., 2), a (0,2)-tensor or g^-1 is (..., 2, 2).
Operators combine them with batched ``@`` on those axes, e.g. <a, b> =
tr((g^-1 a)(g^-1 b)).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .curvature import (
    TAYLOR_INDICES,
    Taylor2,
    _times_blocks,
    curvature_jets,
    curvature_scalars,
    fundamental_forms,
)
from .surface import PatchDomain, Provenance, SurfaceSample, _require_same_grid


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-node x_i y_i, contracting the trailing axes of x and y."""
    return (x * y) @ np.ones(x.shape[-1])


class ScalarField:
    """Grid-sampled scalar bound to a surface sample.

    ``jet``, an optional order-2 ``Taylor2``, carries the chart partials
    d^a_u d^b_v on the grid; without one they are grid-differentiated on
    first use and cached. A field lives on the grid only.
    """

    def __init__(self, values, sample: SurfaceSample, jet: Taylor2 | None = None):
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != sample.shape:
            raise ConfigError("field grid does not match the sample grid")
        self.sample = sample
        self.jet = jet
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    def partial(self, a: int, b: int) -> np.ndarray:
        if (a, b) == (0, 0):
            return self.values
        if self.jet is not None:
            return self.jet.partial(a, b)
        key = (a, b)
        if key not in self._cache:
            self._cache[key] = self.sample.chart_ops().partial(self.values, a, b)
        return self._cache[key]

    @property
    def _partial_impl(self):  # the provider tag perfbench/bench_trace.py reads
        return None if self.jet is None else self.jet.partial

    def taylor(self) -> Taylor2:
        """The field's order-2 jet: its own, or one read from the grid partials."""
        return self.jet if self.jet is not None else Taylor2.from_partials(self.partial)

    def with_sample(self, sample: SurfaceSample) -> "ScalarField":
        """Rebind to another sample on the same chart grid (values and chart
        partials are unchanged; only the geometry differs)."""
        if sample.domain != self.sample.domain:
            raise ConfigError("cannot rebind a field across different chart grids")
        return ScalarField(self.values, sample, jet=self.jet)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c: float, sample: SurfaceSample) -> "ScalarField":
        vals = np.full(sample.shape, float(c))
        jet = Taylor2((vals,) + (np.zeros(sample.shape),) * 5)
        return ScalarField(vals, sample, jet=jet)

    @staticmethod
    def from_expr(expr, sample: SurfaceSample) -> "ScalarField":
        """Field given by a sympy expression in the chart symbols u, v."""
        import sympy as sp

        u, v = sp.symbols("u v", real=True)
        expr = sp.sympify(expr)
        expr = expr.xreplace({s: (u if s.name == "u" else v) for s in expr.free_symbols if s.name in ("u", "v")})
        fns = {ab: sp.lambdify((u, v), sp.diff(expr, u, ab[0], v, ab[1]), modules="numpy") for ab in TAYLOR_INDICES}
        UU, VV = sample.domain.meshes()
        jet = Taylor2.from_partials(
            lambda a, b: np.broadcast_to(np.asarray(fns[(a, b)](UU, VV), dtype=float), sample.shape).copy()
        )
        return ScalarField(jet.value, sample, jet=jet)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ScalarField") -> "ScalarField":
        if self.sample is not other.sample:
            raise ConfigError("fields bound to different samples")
        jet = None if self.jet is None or other.jet is None else self.jet + other.jet
        return ScalarField(self.values + other.values, self.sample, jet=jet)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return self + (other * -1.0)

    def __mul__(self, c: float) -> "ScalarField":
        c = float(c)
        jet = None if self.jet is None else c * self.jet
        return ScalarField(c * self.values, self.sample, jet=jet)

    __rmul__ = __mul__


class AmbientPolyField(ScalarField):
    """Restriction of an ambient quadratic polynomial, optionally windowed.

    u(x) = c0 + c.x + x^T M x, with chart partials pushed exactly through
    the immersion jets as Taylor jets; a smooth window w(v), given as a
    sympy expression in v, can be multiplied in for compact support in a
    non-periodic direction.
    """

    def __init__(self, sample: SurfaceSample, c0: float, cvec, mat, window_expr=None):
        self._build(sample, c0, cvec, mat, None if window_expr is None else _sympy_window(window_expr))

    @classmethod
    def _windowed(cls, sample: SurfaceSample, c0: float, cvec, mat, window) -> "AmbientPolyField":
        """The field with a window given as ``window(V, k)`` = d^k w / dv^k
        at V, for k = 0, 1, 2."""
        f = cls.__new__(cls)
        f._build(sample, c0, cvec, mat, window)
        return f

    def _build(self, sample, c0, cvec, mat, window):
        self.c0 = float(c0)
        self.cvec = np.asarray(cvec, dtype=float)
        self.mat = 0.5 * (np.asarray(mat, dtype=float) + np.asarray(mat, dtype=float).T)
        x = Taylor2.from_jets(sample.jets)
        jet = (
            self.c0
            + Taylor2.multilinear(lambda y: y @ self.cvec, x)
            + Taylor2.multilinear(lambda y, z: _dot(y @ self.mat, z), x, x)
        )
        if window is not None:
            _, VV = sample.domain.meshes()
            w = [np.broadcast_to(np.asarray(window(VV, k), dtype=float), sample.shape) for k in range(3)]
            zero = np.zeros(sample.shape)
            jet = jet * Taylor2((w[0], zero, w[1], zero, zero, w[2]))
        super().__init__(jet.value, sample, jet=jet)


def _sympy_window(window_expr):
    """``window(V, k)`` from a sympy expression in the symbol v."""
    import sympy as sp

    v = sp.Symbol("v", real=True)
    expr = sp.sympify(window_expr)
    expr = expr.xreplace({s: v for s in expr.free_symbols if s.name == "v"})
    fns = [sp.lambdify(v, sp.diff(expr, v, k), modules="numpy") for k in range(3)]
    return lambda V, k: fns[k](V)


def _cos10_window(v_range):
    """``window(V, k)`` for w = cos^10(q (v - mid)), q = pi / (b - a): 1 at the
    middle of [a, b], vanishing to order 10 at both ends."""
    a, b = v_range
    mid, q = 0.5 * (a + b), np.pi / (b - a)

    def window(V, k):
        c, s = np.cos(q * (V - mid)), np.sin(q * (V - mid))
        if k == 0:
            return c**10
        if k == 1:
            return -10.0 * q * c**9 * s
        return 10.0 * q**2 * (9.0 * c**8 * s**2 - c**10)

    return window


def random_smooth_field(sample: SurfaceSample, seed: int, compact_v: bool = False) -> ScalarField:
    """Seeded band-limited field: ambient quadratic with O(1) coefficients.

    With ``compact_v`` the field is multiplied by a cos^10 window so it is
    compactly supported away from the non-periodic v edges.
    """
    rng = np.random.default_rng(seed)
    dim = sample.ambient_dim
    scale = 1.0 / max(1.0, np.max(np.linalg.norm(sample.positions, axis=-1)))
    c0 = rng.uniform(-0.5, 0.5)
    cvec = rng.uniform(-1.0, 1.0, size=dim) * scale
    mat = rng.uniform(-1.0, 1.0, size=(dim, dim)) * scale**2
    window = _cos10_window(sample.domain.v_range) if compact_v else None
    return AmbientPolyField._windowed(sample, c0, cvec, mat, window)


class TensorField02:
    """Symmetric (0,2)-tensor with components on the grid."""

    def __init__(self, comps, sample: SurfaceSample):
        comps = np.asarray(comps, dtype=float)
        if comps.shape != sample.shape + (2, 2):
            raise ConfigError("tensor grid does not match the sample grid")
        self.comps = 0.5 * (comps + np.swapaxes(comps, -1, -2))
        self.sample = sample


def curvature_field(sample: SurfaceSample, which: str) -> ScalarField:
    """H, K, or K_E as a ScalarField.

    On exact-jet samples the chart partials are the Taylor jets of
    ``curvature_jets``; on numeric-jet samples they come from grid
    differentiation, since the order-3/4 stencil jets of open charts are
    too inexact to push through.
    """
    cs = curvature_scalars(sample)
    vals = {"H": cs.H, "K": cs.K, "K_E": cs.K_E}[which]
    if sample.provenance is not Provenance.ANALYTIC:
        return ScalarField(vals, sample)
    H, K_E = curvature_jets(sample)
    jet = {"H": H, "K": K_E + sample.sf.k0, "K_E": K_E}[which]
    return ScalarField(vals, sample, jet=jet)


# -- differential operators -------------------------------------------------


def grad_lower(f: ScalarField, s: SurfaceSample) -> np.ndarray:
    """Chart partials (f_u, f_v), shape (..., 2); f must live on the chart
    grid of s."""
    _require_same_grid(f.sample, s)
    return np.stack([f.partial(1, 0), f.partial(0, 1)], axis=-1)


def gradient(f: ScalarField, s: SurfaceSample) -> np.ndarray:
    """Raised gradient components grad^i f = g^{ij} f_j, shape (..., 2)."""
    return (fundamental_forms(s).g_inv @ grad_lower(f, s)[..., None])[..., 0]


def grad_inner(f1: ScalarField, f2: ScalarField, s: SurfaceSample) -> np.ndarray:
    """<grad f1, grad f2> = g^{ij} (f1)_i (f2)_j."""
    return _dot(gradient(f1, s), grad_lower(f2, s))


def hessian(f: ScalarField, s: SurfaceSample) -> TensorField02:
    """Covariant Hessian f_{;ij} = f_ij - Gamma^k_ij f_k."""
    ff = fundamental_forms(s)
    fk = grad_lower(f, s)
    comps = np.empty(s.shape + (2, 2))
    comps[..., 0, 0] = f.partial(2, 0)
    comps[..., 1, 1] = f.partial(0, 2)
    comps[..., 0, 1] = comps[..., 1, 0] = f.partial(1, 1)
    comps -= _times_blocks(fk[..., None, :], ff.gamma)[..., 0, :, :]
    return TensorField02(comps, s)


def laplace_beltrami(f: ScalarField, s: SurfaceSample) -> ScalarField:
    vals = np.sum(fundamental_forms(s).g_inv * hessian(f, s).comps, axis=(-2, -1))
    return ScalarField(vals, s)


def contract(a: TensorField02, b: TensorField02, s: SurfaceSample) -> ScalarField:
    """<a, b> = g^{ik} g^{jl} a_ij b_kl; a and b must live on the chart grid of s."""
    _require_same_grid(a.sample, s)
    _require_same_grid(b.sample, s)
    g_inv = fundamental_forms(s).g_inv
    # tr(P Q) = sum of P * Q^T, with (g^-1 b)^T = b g^-1 for symmetric b, g
    vals = np.sum((g_inv @ a.comps) * (b.comps @ g_inv), axis=(-2, -1))
    return ScalarField(vals, s)


def bilinear(a: TensorField02, f1: ScalarField, f2: ScalarField, s: SurfaceSample) -> np.ndarray:
    """a(grad f1, grad f2) with raised gradients."""
    return _dot(gradient(f1, s), (a.comps @ gradient(f2, s)[..., None])[..., 0])


def shape_tensor(s: SurfaceSample) -> TensorField02:
    return TensorField02(fundamental_forms(s).h, s)


def metric_tensor(s: SurfaceSample) -> TensorField02:
    return TensorField02(fundamental_forms(s).g, s)


def h_squared(s: SurfaceSample) -> TensorField02:
    """(h^2)_ij = g^{kl} h_li h_kj."""
    ff = fundamental_forms(s)
    return TensorField02(ff.h @ ff.g_inv @ ff.h, s)


# -- quadrature --------------------------------------------------------------


def _fejer1_weights(n: int) -> np.ndarray:
    """Fejer first-rule weights at x_j = cos((2j+1)pi/(2n)) for int_{-1}^{1}."""
    theta = (2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n)
    m = np.arange(1, n // 2 + 1)
    return (2.0 / n) * (1.0 - 2.0 * np.sum(np.cos(2.0 * np.outer(theta, m)) / (4.0 * m**2 - 1.0), axis=1))


def _direction_weights(domain: PatchDomain) -> tuple[np.ndarray, np.ndarray]:
    lu = domain.u_range[1] - domain.u_range[0]
    lv = domain.v_range[1] - domain.v_range[0]
    if domain.periodic_u:
        wu = np.full(domain.nu, lu / domain.nu)
    else:
        wu = np.full(domain.nu, lu / (domain.nu - 1))
        wu[0] *= 0.5
        wu[-1] *= 0.5
    if domain.pole_offset:
        # the area density vanishes like sin(theta) at both ends; weighting
        # by Fejer-1 weights over x = cos(theta) makes the rule exact for
        # band-limited integrands and spectrally accurate for smooth ones
        theta = (2.0 * np.arange(domain.nv) + 1.0) * np.pi / (2.0 * domain.nv)
        wv = (lv / np.pi) * _fejer1_weights(domain.nv) / np.sin(theta)
    elif domain.periodic_v:
        wv = np.full(domain.nv, lv / domain.nv)
    else:
        wv = np.full(domain.nv, lv / (domain.nv - 1))
        wv[0] *= 0.5
        wv[-1] *= 0.5
    return wu, wv


def integrate(f, s: SurfaceSample, allow_open: bool = False) -> float:
    """Surface integral of f dS; f may be a ScalarField or a grid array.

    Open (non-closed) patches require ``allow_open=True`` -- variation
    values are then meaningful only for compactly supported fields.
    """
    if not s.domain.closed and not allow_open:
        raise ConfigError("integrating over a non-closed patch requires allow_open=True")
    if isinstance(f, ScalarField):
        _require_same_grid(f.sample, s)
        f = f.values
    vals = np.asarray(f, dtype=float)
    w = fundamental_forms(s).dS_weight
    wu, wv = _direction_weights(s.domain)
    return float(np.sum(vals * w * wu[:, None] * wv[None, :]))


def area(s: SurfaceSample, allow_open: bool = True) -> float:
    return integrate(np.ones(s.shape), s, allow_open=allow_open)


# -- CSV helpers --------------------------------------------------------------


def export_field_csv(f: ScalarField, path) -> None:
    UU, VV = f.sample.domain.meshes()
    np.savetxt(
        path,
        np.column_stack([UU.ravel(), VV.ravel(), f.values.ravel()]),
        delimiter=",",
        header="u,v,value",
        comments="",
    )


def import_field_csv(path, sample: SurfaceSample) -> ScalarField:
    """Field from a CSV of u, v, value rows in grid order (as written by
    ``export_field_csv``); every value must be finite."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field CSV '{path}': {exc}")
    if data.shape[0] != sample.shape[0] * sample.shape[1]:
        raise ConfigError("CSV row count does not match the sample grid")
    if data.shape[1] < 3:
        raise ConfigError(f"field CSV '{path}' has no value column (expected u,v,value)")
    values = data[:, 2].reshape(sample.shape)
    bad = ~np.isfinite(values)
    if np.any(bad):
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise ConfigError(f"non-finite field value {values[i, j]} at node ({i}, {j}) in '{path}'")
    return ScalarField(values, sample)
