"""Parametric surface patches on structured grids.

A SurfaceSample carries the partial derivatives (jets) of the immersion at
every grid node. Catalog surfaces get them to order 4 in closed form. A
user position map (``sample_callable``) gets them to order 4 from sampled
positions, and the chart decides how:

- On a closed chart (periodic u, and v periodic or pole-offset) the
  positions are needed at the grid nodes only. All 15 partials come from
  ``gridops.ChartDerivatives``: FFT along periodic directions, and the
  double-Fourier pole extension along a pole-offset v. A spectral-tail
  guard refuses grids that do not resolve the positions.
- On an open chart, one centered 7-point stencil per axis at the step
  h = 2e-3 x the axis length gives every partial to order 4 from the
  positions at the 7 x 7 offsets around the nodes (49 map calls).

A deformed surface (``deform_normal``) gets its jets to order 2 by the
chain rule from those of the base sample, its normal and the field, on
every chart alike; nothing is evaluated off the grid. Every route refuses
non-finite positions or jets and names the node.

Every route lays its (nu, nv, dim) jets out component-major, each
component x[..., k] one contiguous grid plane (``_empty_planes``), so the
per-component arithmetic downstream streams whole planes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ConfigError, DegenerateMetricError, _first_node
from .gridops import ChartDerivatives, fd_weights
from .spaceform import Model, SpaceForm

JET_ORDER = 4


@dataclass(frozen=True)
class ChartAxis:
    """One direction of a chart grid: n nodes over [lo, hi], L = hi - lo,
    placed, spaced, transformed and weighted by the rule of its kind.
    Periodic: nodes lo + k L/n, FFT over n values of period L, weights
    L/n. Pole (a lat-long v, both ends poles): nodes half a step inside,
    lo + (k + 1/2) L/n, FFT over the 2n values of the extension across
    the poles, f(u, -v) = f(u + period/2, v), of period 2L, and Fejer-1
    weights over cos(theta) divided by sin(theta). Open: nodes
    lo + k L/(n - 1), trapezoid weights. A periodic or pole axis is
    differentiated by FFT, an open one by finite differences.
    """

    lo: float
    hi: float
    n: int
    kind: str  # "periodic", "pole" or "open"

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def nodes(self) -> np.ndarray:
        if self.kind == "open":
            return np.linspace(self.lo, self.hi, self.n)
        return self.lo + self.length * (np.arange(self.n) + (0.5 if self.kind == "pole" else 0.0)) / self.n

    @property
    def spacing(self) -> float:
        return self.length / (self.n - 1 if self.kind == "open" else self.n)

    @property
    def fft(self) -> tuple[int, float]:
        """Length and period of the values an FFT along the axis takes."""
        return (2 * self.n, 2.0 * self.length) if self.kind == "pole" else (self.n, self.length)

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weights of the nodes, built on first read and read-only."""
        if self.kind == "pole":
            # the area density vanishes like sin(theta) at both ends; weighting
            # by Fejer-1 weights over x = cos(theta) makes the rule exact for
            # band-limited integrands and spectrally accurate for smooth ones
            n = self.n
            theta = (2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n)
            m = np.arange(1, n // 2 + 1)
            fejer = (2.0 / n) * (1.0 - 2.0 * np.sum(np.cos(2.0 * np.outer(theta, m)) / (4.0 * m**2 - 1.0), axis=1))
            w = (self.length / np.pi) * fejer / np.sin(theta)
        else:
            w = np.full(self.n, self.spacing)
            if self.kind == "open":
                w[[0, -1]] *= 0.5
        w.setflags(write=False)
        return w


@dataclass(frozen=True)
class PatchDomain:
    """Rectangular chart domain with grid counts and periodicity flags.

    ``pole_offset`` marks a lat-long v: its nodes sit half a step inside
    both ends of ``v_range``, and both ends must be poles of the chart (v
    in (0, pi) on the sphere charts), across which the chart continues as
    f(u, -v) = f(u + period/2, v). Spectral jets are refused otherwise.
    ``axes`` turns the flags into one ``ChartAxis`` per direction. Both
    ranges must be finite with lo < hi: a reversed one would make the
    spacing and the weights negative.
    """

    u_range: tuple[float, float]
    v_range: tuple[float, float]
    nu: int
    nv: int
    periodic_u: bool = False
    periodic_v: bool = False
    pole_offset: bool = False

    def __post_init__(self):
        for axis, (lo, hi) in (("u", self.u_range), ("v", self.v_range)):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ConfigError(f"chart {axis}_range must be finite with lo < hi (got {axis}_range = ({lo}, {hi}))")
        if self.nu < 8 or self.nv < 8:
            raise ConfigError("grid counts must be at least 8")
        if self.periodic_v and self.pole_offset:
            raise ConfigError("pole_offset applies to a non-periodic v direction")
        # the pole extension f(u, -v) = f(u + period/2, v) needs the
        # antipodal longitude of every node on the grid
        if self.pole_offset and not self.periodic_u:
            raise ConfigError("pole_offset needs a periodic u direction")
        if self.pole_offset and self.nu % 2:
            raise ConfigError(f"pole_offset needs an even nu (got nu = {self.nu})")

    @cached_property
    def axes(self) -> tuple[ChartAxis, ChartAxis]:
        """The u and v directions, built once per domain, so each axis builds
        its weights once."""
        v_kind = "periodic" if self.periodic_v else "pole" if self.pole_offset else "open"
        return ChartAxis(*self.u_range, self.nu, "periodic" if self.periodic_u else "open"), ChartAxis(*self.v_range, self.nv, v_kind)

    @property
    def u_nodes(self) -> np.ndarray:
        return self.axes[0].nodes

    @property
    def v_nodes(self) -> np.ndarray:
        return self.axes[1].nodes

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.u_nodes, self.v_nodes, indexing="ij")

    @property
    def closed(self) -> bool:
        """True when quadrature over the patch covers a closed surface."""
        return all(ax.kind != "open" for ax in self.axes)


class Provenance(Enum):
    ANALYTIC = "analytic"
    NUMERIC_JETS = "numeric_jets"


MULTI_INDICES = [(a, b) for a in range(JET_ORDER + 1) for b in range(JET_ORDER + 1) if a + b <= JET_ORDER]


@dataclass
class SurfaceSample:
    """Grid of immersion jets: {(a, b): d^a_u d^b_v r} at every node. Its
    ``_cache`` holds what is built from it (arrays, jets, forms), never an
    object that refers back to a sample, so a dropped sample is freed; a
    copy made by ``dataclasses.replace`` starts with an empty one."""

    domain: PatchDomain
    sf: SpaceForm
    jets: dict[tuple[int, int], np.ndarray]
    orientation_sign: float = 1.0
    provenance: Provenance = Provenance.NUMERIC_JETS
    # the map the jets were sampled from, callable (U, V) -> (..., dim); kept
    # for callers that inspect or wrap it, read by nothing in curvevar; None on a
    # deformed sample
    position_map: object = None
    name: str = "surface"
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def positions(self) -> np.ndarray:
        return self.jets[(0, 0)]

    @property
    def ambient_dim(self) -> int:
        return self.positions.shape[-1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.positions.shape[:2]

    def flipped(self) -> "SurfaceSample":
        """The sample in the opposite orientation: the same jets and an
        empty cache. Every sign flip is exact, so its N, built again on
        first read, is the negation of this sample's bit for bit, and its h
        is equal to the negation, though a zero may differ in sign."""
        return replace(self, orientation_sign=-self.orientation_sign)

    @property
    def jet_order(self) -> int:
        """Highest total order of the chart partials the sample carries."""
        return max(a + b for a, b in self.jets)


def _require_jets(sample: "SurfaceSample", order: int, what: str) -> None:
    """Refuse a sample whose jets stop short of ``order``, naming it."""
    if sample.jet_order < order:
        raise ConfigError(
            f"{what} needs immersion jets to order {order}, but {sample.name} carries them to order "
            f"{sample.jet_order} only (a deformed sample carries order 2)"
        )


def _require_same_grid(field_sample: "SurfaceSample", s: "SurfaceSample") -> None:
    """Refuse a field sampled on another chart grid than s: its values and
    partials belong to the chart of ``field_sample``. Samples on equal
    ``PatchDomain``s share a grid."""
    if field_sample.domain != s.domain:
        raise ConfigError(f"the field lives on the chart grid of {field_sample.name}, not on that of {s.name}")


def _nonfinite_node(x: np.ndarray):
    """The first grid node (i, j) at which some entry of x is not finite,
    or None. A finite sum of x clears every node at once; a sum that is
    not finite (a NaN or infinity in x, or finite entries whose sum
    overflows) falls through to the per-node search."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(x.sum()):
            return None
    bad = ~np.all(np.isfinite(x), axis=tuple(range(2, x.ndim)))
    return _first_node(bad) if np.any(bad) else None


def _empty_planes(shape: tuple, dtype, entry_axes: int = 1) -> np.ndarray:
    """An uninitialised array of ``shape`` whose trailing ``entry_axes``
    axes are laid out entry-major: each entry (x[..., k] of a vector,
    x[..., i, j] of a 2x2 block, ...) is one contiguous grid plane."""
    lead = len(shape) - entry_axes
    order = tuple(range(entry_axes, len(shape))) + tuple(range(entry_axes))
    return np.empty(shape[lead:] + shape[:lead], dtype).transpose(order)


def _as_planes(x: np.ndarray) -> np.ndarray:
    """x as a float array of the same (..., k) shape laid out
    component-major (a copy)."""
    return np.moveaxis(np.array(np.moveaxis(x, -1, 0), dtype=float, order="C"), 0, -1)


class _Bilinear:
    """A bilinear map of per-node tensors, defined by its table.

    Entries of the value and of the operands are addressed by index
    tuples: () for a grid scalar (the array itself), (k,) for a vector
    component, (i, j) for a 2x2 entry, (l, i, j) for Gamma_l,ij. ``rows``
    maps every entry of the value to its terms (s, a, b), s = +1 or -1 and
    the first s = +1: the sum, left to right, of s x[..., a] y[..., b],
    times ``scales[entry]`` (+1 or -1) when given. Calling the map
    evaluates it on two arrays, in their dtype, through one scratch plane,
    into an entry-major array (a plain grid array for a scalar value);
    ``curvature.Taylor2.bilinear`` writes its order-2 jet with ``write``."""

    def __init__(self, rows: dict, scales: dict | None = None):
        self.out = tuple(rows)
        self.shape = tuple(max(idx[d] for idx in self.out) + 1 for d in range(len(self.out[0])))
        # the entries each operand is read at, in order; a compiled term
        # (s, a, b) holds the positions of its two entries there
        self.entries = tuple(tuple(sorted({t[i] for terms in rows.values() for t in terms})) for i in (1, 2))
        self.rows = tuple(
            tuple((s, self.entries[0].index(a), self.entries[1].index(b)) for s, a, b in terms)
            for terms in rows.values()
        )
        self.negate = tuple((scales or {}).get(idx, 1.0) < 0 for idx in self.out)

    def planes(self, x, operand: int) -> list:
        """The entries of operand 0 or 1 that the table reads, in order."""
        return [x[(...,) + idx] if idx else x for idx in self.entries[operand]]

    def empty(self, lead: tuple, dtype) -> np.ndarray:
        """An uninitialised value array over the leading axes ``lead``."""
        return _empty_planes(lead + self.shape, dtype, len(self.shape)) if self.shape else np.empty(lead, dtype)

    def plane(self, out: np.ndarray, c: int) -> np.ndarray:
        """Entry c of the value array ``out``, in row order."""
        idx = self.out[c]
        return out[(...,) + idx] if idx else out

    def write(self, c: int, xp: list, yp: list, dst: np.ndarray, scratch: np.ndarray) -> None:
        """Entry c of the map of the entries xp, yp into dst."""
        (_, a, b), *rest = self.rows[c]
        np.multiply(xp[a], yp[b], out=dst)
        for s, a, b in rest:
            term = np.multiply(xp[a], yp[b], out=scratch)
            if s > 0:
                dst += term
            else:
                dst -= term
        if self.negate[c]:
            dst *= -1.0

    def __call__(self, x, y) -> np.ndarray:
        xp, yp = self.planes(x, 0), self.planes(y, 1)
        lead = xp[0].shape if xp[0].shape == yp[0].shape else np.broadcast_shapes(xp[0].shape, yp[0].shape)
        dtype = np.result_type(x, y)
        out, scratch = self.empty(lead, dtype), np.empty(lead, dtype)
        for c in range(len(self.rows)):
            self.write(c, xp, yp, self.plane(out, c), scratch)
        return out


def _inner_form(signs: tuple) -> _Bilinear:
    """The scalar form sum_k sign_k x_k y_k of two vectors, left to right."""
    return _Bilinear({(): [(s, (k,), (k,)) for k, s in enumerate(signs)]})


# the cross product x × y of 3-vectors
_cross = _Bilinear({(i,): [(1, (j,), (k,)), (-1, (k,), (j,))] for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))})

_PAIRS = tuple((i, j) for i in range(4) for j in range(i + 1, 4))

# the six 2x2 minors m_ij = r_u^i r_v^j - r_u^j r_v^i (i < j) of two
# 4-vectors, in the order of _PAIRS
_minors = _Bilinear({(c,): [(1, (i,), (j,)), (-1, (j,), (i,))] for c, (i, j) in enumerate(_PAIRS)})


def _normal_from_minors(signs) -> _Bilinear:
    """The unnormalised normal of a surface in a 4-dimensional model
    quadric with metric signs ``signs``, as a bilinear map of the quadric
    direction q and the minors m of (r_u, r_v) (``_minors``)."""
    # covector w_l = det(e_l, q, r_u, r_v), expanded in the minors; raised
    # with the flat metric, n^l = G^{ll} w_l (diagonal)
    rows = {}
    for l in range(4):
        a, b, c = (i for i in range(4) if i != l)
        m = {p: (_PAIRS.index(p),) for p in ((b, c), (a, c), (a, b))}
        rows[(l,)] = [(1, (a,), m[b, c]), (-1, (b,), m[a, c]), (1, (c,), m[a, b])]
    return _Bilinear(rows, {(l,): (-1.0) ** l * signs[l] for l in range(4)})


def check_immersion(sample: SurfaceSample, where: str = "") -> None:
    """Refuse non-finite jets (a map undefined at a node or, on an open
    chart, at a stencil offset) and a degenerate metric, naming the node.
    The metric guard builds the forms (``fundamental_forms``), which stay cached."""
    from .curvature import fundamental_forms

    at = f" in {where}" if where else ""
    for ab, x in sample.jets.items():
        node = _nonfinite_node(x)
        if node is not None:
            raise ConfigError(f"non-finite position partial {ab} at node {node}{at}")
    try:
        fundamental_forms(sample)
    except DegenerateMetricError as err:
        raise DegenerateMetricError(f"degenerate metric at node {err.node}{at}", node=err.node) from None


# -- numeric jets ----------------------------------------------------------

# largest spectral tail (``spectral_tail``) that spectral jets accept
SPECTRAL_TAIL_BOUND = 1e-20

# points of the centered stencil along each axis of an open chart, and its
# step as a share of the axis length (``_stencil_jets``)
STENCIL_WIDTH = 7
STENCIL_STEP = 2e-3


def spectral_tail(values, domain: PatchDomain) -> dict:
    """Share of the spectral energy of grid values in the top third of the
    Fourier modes (n/3 < |k| <= n/2), along each closed direction of the
    chart: {"u": share, "v": share}. Along a pole-offset v the values are
    first extended to the full latitude circle. Trailing axes are summed
    over.

    Spectral jets are refused when a share exceeds SPECTRAL_TAIL_BOUND =
    1e-20: the grid does not resolve the positions, and their partials
    would be aliased. The bound is measured. On the maps (exp(a cos u),
    cos u, sin v) and (1/(1 + a sin^2 u), cos u, sin v), a in [0.5, 8] and
    n in 16..128, every grid with a share <= 1e-20 gave partials at the
    round-off floor of spectral differentiation (order 2 <= 1.2e-12,
    order 4 <= 3.4e-9 of the positions). From 1.5e-19 up, order-4 errors
    reach 1.6e-7, and 1.3e-3 at 1.4e-14. Catalog charts and numeric-jet
    spheres measure <= 3e-32.
    """
    ops = ChartDerivatives(domain)
    x = np.asarray(values, dtype=float)
    return {"uv"[i]: _tail_share(ops.transform(x, i), i, ax.fft[0]) for i, ax in enumerate(domain.axes) if ax.kind != "open"}


def _tail_share(fk: np.ndarray, axis: int, n: int) -> float:
    """``spectral_tail``'s share along ``axis`` from the forward transform
    fk of the n values there."""
    power = np.abs(fk) ** 2
    power = np.moveaxis(power, axis, 0).reshape(power.shape[axis], -1).sum(axis=1)
    power[1 : (n + 1) // 2] *= 2.0  # every mode but the mean and Nyquist stands for +-k
    total = power.sum()
    return float(power[n // 3 + 1 :].sum() / total) if total > 0 else 0.0


def _spectral_jets(values, ops: ChartDerivatives, name: str) -> dict:
    """Jets of positions sampled at the nodes of a closed chart, all 15
    partials by spectral differentiation, laid out component-major like
    the values. Refuses values that are not finite, or whose spectral tail
    exceeds ``SPECTRAL_TAIL_BOUND``."""
    x = _as_planes(values)
    node = _nonfinite_node(x)
    if node is not None:
        raise ConfigError(f"{name}: non-finite position at node {node}")
    # the forward transforms along u and v serve the tail guard, then the jet
    spectra = {axis: ops.transform(x, axis) for axis in (0, 1)}
    for axis, ax in enumerate(ops.domain.axes):
        share = _tail_share(spectra[axis], axis, ax.fft[0])
        if share > SPECTRAL_TAIL_BOUND:
            fix = "use a finer grid"
            if ax.kind == "pole":
                fix = f"both ends of v_range = {ops.domain.v_range} must be poles of the chart; if they are, {fix}"
            raise ConfigError(
                f"{name}: spectral tail {share:.2e} along {'uv'[axis]} exceeds {SPECTRAL_TAIL_BOUND:g}, so the "
                f"{ops.domain.nu}x{ops.domain.nv} grid does not resolve it and its jets would be aliased; {fix}"
            )
    return ops.jet(x, JET_ORDER, spectra)


def _stencil_jets(f, domain: PatchDomain) -> dict:
    """Numeric jets of a position map on an open chart.

    Along each axis the centered ``STENCIL_WIDTH``-point stencil at the
    step h = ``STENCIL_STEP`` x the axis length gives the Fornberg weights
    w_m of the m-th derivative, those of odd m exactly 0 at the centre and
    w_0 the centre alone. d^a_u d^b_v is the sum of w_a[i] w_b[j] f(u + i
    h_u, v + j h_v) over the offsets where that weight is non-zero. The map
    is called once at each of the 49 offsets, in ascending (i, j) order,
    and each value is folded into every sum that uses it, so no evaluation
    outlives its offset. That order is each sum's own term order.
    """
    UU, VV = domain.meshes()
    offsets = np.arange(STENCIL_WIDTH) - STENCIL_WIDTH // 2
    steps = [STENCIL_STEP * ax.length for ax in domain.axes]
    wu, wv = (np.array([fd_weights(offsets * h, m) for m in range(JET_ORDER + 1)]) for h in steps)
    for w in (wu, wv):
        w[0] = offsets == 0  # the centre value itself
        w[1::2, STENCIL_WIDTH // 2] = 0.0  # odd orders vanish at the centre
    jets = dict.fromkeys(MULTI_INDICES)
    for i, du in enumerate(offsets * steps[0]):
        for j, dv in enumerate(offsets * steps[1]):
            x = _as_planes(f(UU + du, VV + dv))
            term = np.empty_like(x)
            for a, b in MULTI_INDICES:
                c = wu[a, i] * wv[b, j]
                if c == 0.0:
                    continue
                if jets[(a, b)] is None:
                    jets[(a, b)] = c * x
                else:
                    jets[(a, b)] += np.multiply(c, x, out=term)
    return jets


def numeric_jets(f, domain: PatchDomain, name: str = "position map") -> dict:
    """All chart partials of a position map up to order 4 at the grid nodes.

    On a closed chart the map is evaluated once, at the grid nodes, and
    differentiated spectrally. On an open chart each partial is the
    tensor product of centered 7-point stencils along u and v at the
    steps h = 2e-3 x each axis length (``_stencil_jets``); the map is
    evaluated once at each of the 49 offsets. ``name`` labels the error
    raised on a closed chart when the map is not finite at a node or the
    grid does not resolve it.
    """
    if domain.closed:
        return _spectral_jets(f(*domain.meshes()), ChartDerivatives(domain), name)
    return _stencil_jets(f, domain)


def sample_callable(
    f,
    domain: PatchDomain,
    sf: SpaceForm = SpaceForm.euclidean(),
    orientation_sign: float = 1.0,
    name: str = "callable",
) -> SurfaceSample:
    """Sample a user-supplied position map with numeric jets to order 4
    (spectral on a closed chart, one 7-point stencil per axis on an open
    one; see ``numeric_jets``). Refuses a map whose values at the chart
    points are not of shape (nu, nv, ambient_dim), naming both shapes."""
    want = (domain.nu, domain.nv, sf.ambient_dim)

    def checked(U, V):
        x = f(U, V)
        if np.shape(x) != want:
            raise ConfigError(f"{name}: the position map returned values of shape {np.shape(x)}, expected (nu, nv, ambient_dim) = {want}")
        return x

    jets = numeric_jets(checked, domain, name)
    s = SurfaceSample(
        domain=domain,
        sf=sf,
        jets=jets,
        orientation_sign=orientation_sign,
        provenance=Provenance.NUMERIC_JETS,
        position_map=f,
        name=name,
    )
    check_immersion(s, where=name)
    return s


def deform_normal(s: SurfaceSample, u, t: float) -> SurfaceSample:
    """Geodesic normal deformation: each point moves distance t*u(x) along N.

    In the Euclidean model this is exactly r0 + t u N. The deformed sample
    carries the jets of order <= 2 of the moved points, pushed forward from
    those of s, N and u (see ``deform_normal_many``, whose one-step case
    this is).
    """
    return deform_normal_many(s, u, (t,))[t]


def deform_normal_many(s: SurfaceSample, u, ts) -> dict:
    """Geodesic normal deformations by several steps: {t: deformed sample}.

    Each deformed sample is the one ``deform_normal(s, u, t)`` gives. Its
    jets follow from the chain rule in order-2 Taylor arithmetic
    (``curvature.Taylor2``; Griewank & Walther, Evaluating Derivatives, 2nd
    ed., ch. 13). The jets of the points p (order <= 2 jets of s), of the
    oriented unit normal N (from the order-3 jets of s) and of the field
    (``u.taylor()``: its own jet, or its grid partials) give those of the
    moved points

        p + t u N                                      in E^3,
        cos(t u / rho) p + rho sin(t u / rho) N        in S^3 of radius rho,
        cosh(t u / rho) p + rho sinh(t u / rho) N      in H^3 of radius rho.

    The same code serves open and closed charts in all three space forms,
    and calls no position map, normal map, field evaluator or FFT. The
    field must live on the chart grid of s, and N must be a unit vector
    tangent to the model at every node, as for ``SpaceForm.geodesic_step``. A deformed sample carries the six jets of
    order <= 2 only and no position map, so what needs jets of order 3 or
    4 (curvature jets, shape-operator derivatives, a further deformation)
    refuses it with a ``ConfigError``.
    """
    return dict(_deformed_samples(s, u, ts))


def _deformed_samples(s: SurfaceSample, u, ts):
    """``deform_normal_many`` one step at a time: yields (t, deformed
    sample) in the order of ts, each checked (``check_immersion``) before
    it is yielded. The generator keeps no reference to a sample it has
    yielded, so a caller that drops each one before asking for the next
    holds one deformed sample at a time."""
    from .curvature import TAYLOR_INDICES, Taylor2, normal_jet

    ts = [float(t) for t in ts]
    if not ts:
        raise ConfigError("deform_normal_many needs at least one step")
    if not np.all(np.isfinite(ts)):
        raise ConfigError(f"deformation steps must be finite (got {ts})")
    if len(set(ts)) != len(ts):
        raise ConfigError(f"deformation steps must be distinct (got {ts}; 0.0 and -0.0 are one step)")
    _require_jets(s, 3, "deform_normal")
    _require_same_grid(u.sample, s)
    sf = s.sf
    p, n = Taylor2.from_jets(s.jets), normal_jet(s)
    sf.check_unit_tangent(p.value, n.value)
    uj = u.taylor()
    un = None
    if sf.model is Model.EUCLIDEAN:
        # the step is linear in t: u N is pushed forward once
        un = uj.times_vector(n)
    name = f"{s.name}+deform"

    def moved(t: float) -> Taylor2:
        # each step builds its jets once, fresh (``deform_normal_many`` keeps
        # every step), and scales and adds its other term into them in
        # place: the same rounded operations as the whole-jet sums
        # p + t u N and cos_t p + rho sin_t N, so the jets are theirs bit
        # for bit
        if un is not None:
            out = t * un
            for x, z in zip(out.parts, p.parts):
                x += z
            return out
        theta = (t / sf.radius) * uj
        th = theta.value
        if sf.model is Model.SPHERE:
            c, sn, sign = np.cos(th), np.sin(th), -1.0
        else:
            c, sn, sign = np.cosh(th), np.sinh(th), 1.0
        # (cos, sin)' = (-sin, cos) and (cosh, sinh)' = (sinh, cosh)
        cos_t = theta.compose(c, sign * sn, sign * c)
        sin_t = theta.compose(sn, c, sign * sn)
        out = cos_t.times_vector(p)
        # sin_t N one component at a time, so no whole vector jet of it is
        # formed: component k of the product is the scalar product with N_k
        for k in range(out.value.shape[-1]):
            step = sin_t * Taylor2(x[..., k] for x in n.parts)
            for x, y in zip(out.parts, step.parts):
                y *= sf.radius
                x[..., k] += y
        return out

    for t in ts:
        d = SurfaceSample(
            domain=s.domain,
            sf=sf,
            jets=dict(zip(TAYLOR_INDICES, moved(t).parts)),
            orientation_sign=s.orientation_sign,
            provenance=Provenance.NUMERIC_JETS,
            name=name,
        )
        check_immersion(d, where=f"{name} at t = {t:g}")
        yield t, d
        del d
