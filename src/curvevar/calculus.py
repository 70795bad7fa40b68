"""Scalar/tensor fields on a sampled surface and intrinsic calculus.

Gradient, covariant Hessian, Laplace-Beltrami, tensor contractions, and
surface quadrature. A field's chart partials come from its order-2
Taylor jet: the one it is given (pushed through the immersion jets,
multiplied by a window field's jet, or read from the derivatives of a
user's sympy chart expression), or one taken once by grid
differentiation, which is FFT-based along periodic or pole-extendable
directions. Fields live on the grid: nothing evaluates them at other
chart points (a deformation reads their jets). Sympy is imported only
when a field is given as a sympy expression.

Per-node tensors keep their index axes trailing, as ``curvature`` lays
them out: a covector is (..., 2), a (0,2)-tensor or g^-1 is (..., 2, 2),
each entry one contiguous grid plane. Operators combine them with the
bilinear tables of ``curvature`` (``surface._Bilinear``), which write
each entry out with whole-grid ufuncs, e.g. <a, b> = the sum over i, j of
(g^-1 a)_ij (b g^-1)_ij.
"""

from __future__ import annotations

import numpy as np

from .densities import _sympy_partials
from .errors import ConfigError, _first_node
from .curvature import (
    TAYLOR_INDICES,
    Taylor2,
    _DOT2,
    _FROBENIUS,
    _MAT_MUL,
    _MAT_VEC,
    _SYM_MAT_MUL,
    _VEC_BLOCKS,
    _symmetric_block,
    curvature_jets,
    curvature_scalars,
    fundamental_forms,
)
from .gridops import ChartDerivatives
from .surface import PatchDomain, Provenance, SurfaceSample, _empty_planes, _inner_form, _require_same_grid


class ScalarField:
    """Grid-sampled scalar bound to a surface sample.

    ``jet``, an optional order-2 ``Taylor2``, carries the chart partials
    d^a_u d^b_v on the grid; without one, ``taylor`` takes one grid jet
    on first use and keeps it in ``_cache``. A field lives on the grid only.
    """

    def __init__(self, values, sample: SurfaceSample, jet: Taylor2 | None = None):
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != sample.shape:
            raise ConfigError("field grid does not match the sample grid")
        self.sample = sample
        self.jet = jet
        self._cache: dict = {}

    def partial(self, a: int, b: int) -> np.ndarray:
        return self.values if (a, b) == (0, 0) else self.taylor().partial(a, b)

    @property
    def _partial_impl(self):  # the provider tag perfbench/bench_trace.py reads
        return None if self.jet is None else self.jet.partial

    def taylor(self) -> Taylor2:
        """The field's order-2 jet: its own, or one taken once from the grid."""
        if self.jet is not None:
            return self.jet
        if "jet" not in self._cache:
            partials = ChartDerivatives(self.sample.domain).jet(self.values, 2)
            self._cache["jet"] = Taylor2(partials[ab] for ab in TAYLOR_INDICES)
        return self._cache["jet"]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c: float, sample: SurfaceSample) -> "ScalarField":
        vals = np.full(sample.shape, float(c))
        jet = Taylor2((vals,) + (np.zeros(sample.shape),) * 5)
        return ScalarField(vals, sample, jet=jet)

    @staticmethod
    def from_expr(expr, sample: SurfaceSample) -> "ScalarField":
        """Field given by a sympy expression in the chart symbols u, v."""
        fns = _sympy_partials(expr, ("u", "v"), TAYLOR_INDICES, "field expression")
        UU, VV = sample.domain.meshes()
        jet = Taylor2.from_partials(
            lambda a, b: np.broadcast_to(np.asarray(fns[(a, b)](UU, VV), dtype=float), sample.shape).copy()
        )
        return ScalarField(jet.value, sample, jet=jet)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _require_same_grid(other.sample, self.sample)
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
    the immersion jets as Taylor jets; a ``window`` field on the same chart
    grid (e.g. ``ScalarField.from_expr``) multiplies its jet in, for
    compact support in the non-periodic directions.
    """

    def __init__(self, sample: SurfaceSample, c0: float, cvec, mat, window: ScalarField | None = None):
        self.c0 = float(c0)
        self.cvec = np.asarray(cvec, dtype=float)
        self.mat = 0.5 * (np.asarray(mat, dtype=float) + np.asarray(mat, dtype=float).T)
        x = Taylor2.from_jets(sample.jets)
        dot = _inner_form((1,) * sample.ambient_dim)
        jet = (
            self.c0
            + Taylor2(p @ self.cvec for p in x.parts)
            + Taylor2.bilinear(dot, Taylor2(p @ self.mat for p in x.parts), x)
        )
        if window is not None:
            _require_same_grid(window.sample, sample)
            jet = jet * window.taylor()
        super().__init__(jet.value, sample, jet=jet)


def _cos10_window(domain: PatchDomain, axis: int) -> Taylor2:
    """Jet of w = cos^10(q (x - mid)), q = pi / (b - a), x the chart
    coordinate of ``axis`` (0 for u, 1 for v) over [a, b]: 1 at the middle,
    vanishing to order 10 at both ends."""
    ax = domain.axes[axis]
    mid, q = 0.5 * (ax.lo + ax.hi), np.pi / ax.length
    X = domain.meshes()[axis]
    c, s = np.cos(q * (X - mid)), np.sin(q * (X - mid))
    w0, w1, w2 = c**10, -10.0 * q * c**9 * s, 10.0 * q**2 * (9.0 * c**8 * s**2 - c**10)
    zero = np.zeros(X.shape)
    return Taylor2((w0, w1, zero, w2, zero, zero) if axis == 0 else (w0, zero, w1, zero, zero, w2))


def random_smooth_field(sample: SurfaceSample, seed: int, compact_v: bool = False) -> ScalarField:
    """Seeded band-limited field: ambient quadratic with O(1) coefficients.

    The linear and quadratic coefficients are scaled by 1/max(1, max|x|),
    the largest ambient norm taken over the grid nodes of ``sample``, not
    over the surface: where it exceeds 1, one seed can draw different
    fields on two charts or grids of one surface.

    With ``compact_v`` the field is multiplied by a cos^10 window in v and,
    on a chart open in u, in u too, so it is compactly supported away from
    the non-periodic edges.
    """
    rng = np.random.default_rng(seed)
    dim = sample.ambient_dim
    dot = _inner_form((1,) * dim)
    scale = 1.0 / max(1.0, np.max(np.sqrt(dot(sample.positions, sample.positions))))
    c0 = rng.uniform(-0.5, 0.5)
    cvec = rng.uniform(-1.0, 1.0, size=dim) * scale
    mat = rng.uniform(-1.0, 1.0, size=(dim, dim)) * scale**2
    window = None
    if compact_v:
        w = _cos10_window(sample.domain, 1)
        if sample.domain.axes[0].kind == "open":
            w = _cos10_window(sample.domain, 0) * w
        window = ScalarField(w.value, sample, jet=w)
    return AmbientPolyField(sample, c0, cvec, mat, window=window)


class TensorField02:
    """Symmetric (0,2)-tensor on the grid; ``comps`` is the array given, uncopied, so nothing writes into it."""

    def __init__(self, comps, sample: SurfaceSample):
        self.comps = np.asarray(comps, dtype=float)
        if self.comps.shape != sample.shape + (2, 2):
            raise ConfigError("tensor grid does not match the sample grid")
        if not np.array_equal(self.comps[..., 0, 1], self.comps[..., 1, 0], equal_nan=True):
            raise ConfigError("tensor components are not symmetric: comps[..., 0, 1] differs from comps[..., 1, 0]")
        self.sample = sample


def curvature_field(sample: SurfaceSample, which: str) -> ScalarField:
    """H, K, or K_E as a new ScalarField on each call, over one Taylor jet
    the sample keeps per scalar, built on first call: on exact-jet samples
    from ``curvature_jets``; on numeric-jet samples the grid jet of the
    values, since a deformed sample carries no order-3/4 jets to push
    through. On ``sample_callable`` samples of open charts neither route
    wins everywhere: at 128x64 the second partials of H and K_E are off by
    2.8e-7 to 5.4e-6 pushed and 4.5e-7 to 7.2e-6 from the grid. Two calls
    give two fields over the same jet; compare them by ``.jet`` or values.
    """
    cs = curvature_scalars(sample)
    values = {"H": cs.H, "K": cs.K, "K_E": cs.K_E}[which]
    key = ("curvature_field", which)
    if key not in sample._cache:
        if sample.provenance is Provenance.ANALYTIC:
            H, K_E = curvature_jets(sample)
            sample._cache[key] = {"H": H, "K": K_E + sample.sf.k0, "K_E": K_E}[which]
        else:
            sample._cache[key] = ScalarField(values, sample).taylor()
    return ScalarField(values, sample, jet=sample._cache[key])


# -- differential operators -------------------------------------------------


def grad_lower(f: ScalarField, s: SurfaceSample) -> np.ndarray:
    """Chart partials (f_u, f_v), shape (..., 2); f must live on the chart
    grid of s."""
    _require_same_grid(f.sample, s)
    f_u, f_v = f.partial(1, 0), f.partial(0, 1)
    out = _empty_planes(np.broadcast_shapes(f_u.shape, f_v.shape) + (2,), np.result_type(f_u, f_v))
    out[..., 0], out[..., 1] = f_u, f_v
    return out


def gradient(f: ScalarField, s: SurfaceSample) -> np.ndarray:
    """Raised gradient components grad^i f = g^{ij} f_j, shape (..., 2)."""
    return _MAT_VEC(fundamental_forms(s).g_inv, grad_lower(f, s))


def grad_inner(f1: ScalarField, f2: ScalarField, s: SurfaceSample) -> np.ndarray:
    """<grad f1, grad f2> = g^{ij} (f1)_i (f2)_j."""
    return _DOT2(gradient(f1, s), grad_lower(f2, s))


def hessian(f: ScalarField, s: SurfaceSample) -> TensorField02:
    """Covariant Hessian f_{;ij} = f_ij - Gamma_l,ij grad^l f (first-kind symbols, raised gradient)."""
    comps = _symmetric_block(f.partial(2, 0), f.partial(1, 1), f.partial(0, 2))
    comps -= _VEC_BLOCKS(gradient(f, s), fundamental_forms(s).christoffel)
    return TensorField02(comps, s)


def laplace_beltrami(f: ScalarField, s: SurfaceSample) -> ScalarField:
    return metric_trace(hessian(f, s), s)


def metric_trace(a: TensorField02, s: SurfaceSample) -> ScalarField:
    """g^{ij} a_ij; the Laplace-Beltrami operator is the trace of the Hessian.
    a must live on the chart grid of s."""
    _require_same_grid(a.sample, s)
    return ScalarField(_FROBENIUS(fundamental_forms(s).g_inv, a.comps), s)


def contract(a: TensorField02, b: TensorField02, s: SurfaceSample) -> ScalarField:
    """<a, b> = g^{ik} g^{jl} a_ij b_kl; a and b must live on the chart grid of s."""
    _require_same_grid(a.sample, s)
    _require_same_grid(b.sample, s)
    g_inv = fundamental_forms(s).g_inv
    # tr(P Q) = sum of P * Q^T, with (g^-1 b)^T = b g^-1 for symmetric b, g
    vals = _FROBENIUS(_MAT_MUL(g_inv, a.comps), _MAT_MUL(b.comps, g_inv))
    return ScalarField(vals, s)


def bilinear(a: TensorField02, f1: ScalarField, f2: ScalarField, s: SurfaceSample) -> np.ndarray:
    """a(grad f1, grad f2) with raised gradients."""
    return _DOT2(gradient(f1, s), _MAT_VEC(a.comps, gradient(f2, s)))


def shape_tensor(s: SurfaceSample) -> TensorField02:
    return TensorField02(fundamental_forms(s).h, s)


def h_squared(s: SurfaceSample) -> TensorField02:
    """(h^2)_ij = g^{kl} h_li h_kj."""
    ff = fundamental_forms(s)
    return TensorField02(_SYM_MAT_MUL(_MAT_MUL(ff.h, ff.g_inv), ff.h), s)


# -- quadrature --------------------------------------------------------------


def integrate(f, s: SurfaceSample) -> float:
    """Surface integral of f dS over the chart, open or closed; f may be a
    ScalarField or a grid array."""
    if isinstance(f, ScalarField):
        _require_same_grid(f.sample, s)
        f = f.values
    vals = np.asarray(f, dtype=float)
    w = fundamental_forms(s).dS_weight
    wu, wv = (ax.weights for ax in s.domain.axes)
    return float(np.sum(vals * w * wu[:, None] * wv[None, :]))


def area(s: SurfaceSample) -> float:
    return integrate(np.ones(s.shape), s)


# -- CSV helpers --------------------------------------------------------------


def _node_rows(sample: SurfaceSample, columns: dict):
    """Node-row CSV header and data: u, v, then the named columns, one row per grid node in grid order."""
    cols = [*sample.domain.meshes(), *columns.values()]
    return ["u", "v", *columns], np.column_stack([np.asarray(c, dtype=float).ravel() for c in cols])


def _write_node_rows(out, header, data) -> None:
    """Header and rows to the text stream ``out`` in one %.17g pass, the bytes
    np.savetxt(fmt="%.17g", delimiter=",") writes: an exact round trip."""
    line = ",".join(["%.17g"] * data.shape[1]) + "\n"
    out.write(",".join(header) + "\n" + (line * len(data)) % tuple(data.ravel().tolist()))


def export_field_csv(f: ScalarField, path) -> None:
    """Write f to the file ``path`` as node rows u, v, value."""
    with open(path, "w") as out:
        _write_node_rows(out, *_node_rows(f.sample, {"value": f.values}))


def import_field_csv(path, sample: SurfaceSample) -> ScalarField:
    """Field from a CSV of u, v, value rows in grid order (as written by
    ``export_field_csv``); every (u, v) must be its grid node, to 1e-9 of
    the chart's extent, and every value finite."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field CSV '{path}': {exc}")
    if data.shape[0] != sample.shape[0] * sample.shape[1]:
        raise ConfigError("CSV row count does not match the sample grid")
    if data.shape[1] < 3:
        raise ConfigError(f"field CSV '{path}' has no value column (expected u,v,value)")
    nodes = _node_rows(sample, {})[1]
    extent = [ax.length for ax in sample.domain.axes]
    off = ~np.all(np.abs(data[:, :2] - nodes) <= 1e-9 * np.array(extent), axis=1)  # NaN is off too
    if np.any(off):
        k = int(np.argmax(off))
        raise ConfigError(
            f"field CSV '{path}' row {k + 1} has (u, v) = ({data[k, 0]}, {data[k, 1]}), "
            f"not its grid node ({nodes[k, 0]}, {nodes[k, 1]})"
        )
    values = data[:, 2].reshape(sample.shape)
    bad = ~np.isfinite(values)
    if np.any(bad):
        node = _first_node(bad)
        raise ConfigError(f"non-finite field value {values[node]} at node {node} in '{path}'")
    return ScalarField(values, sample)
