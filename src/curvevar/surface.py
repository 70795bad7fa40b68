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
- On an open chart, 5-point stencils at steps h = 1e-3 x the chart's
  extent and h/2, combined by Richardson extrapolation, evaluate a
  position map at 41 offsets around the nodes.

A deformed surface (``deform_normal``) gets its jets to order 2 by the
chain rule from those of the base sample, its normal and the field, on
every chart alike; nothing is evaluated off the grid. Every route refuses
non-finite positions or jets and names the node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, DegenerateMetricError
from .gridops import ChartDerivatives, _pole_extend, fd_weights
from .spaceform import Model, SpaceForm

JET_ORDER = 4


@dataclass(frozen=True)
class PatchDomain:
    """Rectangular chart domain with grid counts and periodicity flags.

    ``pole_offset`` marks a lat-long v: its nodes sit half a step inside
    both ends of ``v_range``, and both ends must be poles of the chart (v
    in (0, pi) on the sphere charts), across which the chart continues as
    f(u, -v) = f(u + period/2, v). Spectral jets are refused otherwise.
    """

    u_range: tuple[float, float]
    v_range: tuple[float, float]
    nu: int
    nv: int
    periodic_u: bool = False
    periodic_v: bool = False
    pole_offset: bool = False

    def __post_init__(self):
        if self.nu < 8 or self.nv < 8:
            raise ConfigError("grid counts must be at least 8")
        if self.periodic_v and self.pole_offset:
            raise ConfigError("pole_offset applies to a non-periodic v direction")
        if self.pole_offset and self.nu % 2:
            # the pole extension f(u, -v) = f(u + period/2, v) needs the
            # antipodal longitude of every node on the grid
            raise ConfigError(f"pole_offset needs an even nu (got nu = {self.nu})")

    @property
    def u_nodes(self) -> np.ndarray:
        a, b = self.u_range
        if self.periodic_u:
            return a + (b - a) * np.arange(self.nu) / self.nu
        return np.linspace(a, b, self.nu)

    @property
    def v_nodes(self) -> np.ndarray:
        a, b = self.v_range
        if self.periodic_v:
            return a + (b - a) * np.arange(self.nv) / self.nv
        if self.pole_offset:
            return a + (b - a) * (np.arange(self.nv) + 0.5) / self.nv
        return np.linspace(a, b, self.nv)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.u_nodes, self.v_nodes, indexing="ij")

    @property
    def closed(self) -> bool:
        """True when quadrature over the patch covers a closed surface."""
        u_ok = self.periodic_u
        v_ok = self.periodic_v or self.pole_offset
        return u_ok and v_ok

    @property
    def extent(self) -> float:
        return max(self.u_range[1] - self.u_range[0], self.v_range[1] - self.v_range[0])


class Provenance(Enum):
    ANALYTIC = "analytic"
    NUMERIC_JETS = "numeric_jets"


MULTI_INDICES = [(a, b) for a in range(JET_ORDER + 1) for b in range(JET_ORDER + 1) if a + b <= JET_ORDER]


@dataclass
class SurfaceSample:
    """Grid of immersion jets: {(a, b): d^a_u d^b_v r} at every node."""

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
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def positions(self) -> np.ndarray:
        return self.jets[(0, 0)]

    @property
    def ambient_dim(self) -> int:
        return self.positions.shape[-1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.positions.shape[:2]

    def chart_ops(self) -> ChartDerivatives:
        if "chart_ops" not in self._cache:
            self._cache["chart_ops"] = ChartDerivatives(self.domain)
        return self._cache["chart_ops"]

    def flipped(self) -> "SurfaceSample":
        s = replace(self, orientation_sign=-self.orientation_sign, _cache={})
        return s

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


def _eps_normal(sf: SpaceForm, p, ru, rv) -> np.ndarray:
    """Unit normal tangent to the model quadric, via generalized cross product."""
    if sf.ambient_dim == 3:
        n = np.cross(ru, rv)
        norm = np.linalg.norm(n, axis=-1, keepdims=True)
        return n / norm
    n = _quadric_normal(sf.metric_signs, p, ru, rv)  # p is the quadric direction in both 4-d models
    return n / np.sqrt(np.abs(sf.flat_inner(n, n)))[..., None]


def _quadric_normal(signs, q, ru, rv) -> np.ndarray:
    """Unnormalised normal of a surface in a 4-dimensional model quadric,
    linear in each of the quadric direction q, r_u and r_v."""
    # covector w_l = det(e_l, q, r_u, r_v), expanded in the 2x2 minors of
    # (r_u, r_v); raise with the flat metric
    m = {(i, j): ru[..., i] * rv[..., j] - ru[..., j] * rv[..., i] for i in range(4) for j in range(i + 1, 4)}
    w = []
    for l in range(4):
        a, b, c = (i for i in range(4) if i != l)
        w.append((-1.0) ** l * (q[..., a] * m[b, c] - q[..., b] * m[a, c] + q[..., c] * m[a, b]))
    return np.stack(w, axis=-1) * signs  # n^l = G^{ll} w_l (diagonal metric)


def induced_metric(sample: SurfaceSample) -> np.ndarray:
    """g_ij = <r_i, r_j> over the grid, shape (nu, nv, 2, 2)."""
    inner = sample.sf.flat_inner
    r_u, r_v = sample.jets[(1, 0)], sample.jets[(0, 1)]
    g_uv = inner(r_u, r_v)
    return np.stack([np.stack([inner(r_u, r_u), g_uv], axis=-1), np.stack([g_uv, inner(r_v, r_v)], axis=-1)], axis=-2)


def check_immersion(sample: SurfaceSample, where: str = "") -> None:
    """Refuse non-finite jets (a map undefined at a node or, on an open
    chart, at a stencil offset) and a degenerate metric, naming the node."""
    at = f" in {where}" if where else ""
    for ab, x in sample.jets.items():
        bad = ~np.all(np.isfinite(x), axis=tuple(range(2, x.ndim)))
        if np.any(bad):
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise ConfigError(f"non-finite position partial {ab} at node ({i}, {j}){at}")
    g = induced_metric(sample)
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    scale = np.max(np.abs(g)) ** 2 + 1e-300
    bad = det <= 1e-12 * scale
    if np.any(bad):
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise DegenerateMetricError(
            f"degenerate metric at node ({i}, {j}){at}",
            node=(int(i), int(j)),
        )


# -- numeric jets ----------------------------------------------------------

# largest spectral tail (``spectral_tail``) that spectral jets accept
SPECTRAL_TAIL_BOUND = 1e-20


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
    x = np.asarray(values, dtype=float)
    spectral = (domain.periodic_u, domain.periodic_v or (domain.pole_offset and domain.periodic_u))
    out = {}
    for axis, direction in enumerate("uv"):
        if not spectral[axis]:
            continue
        y = _pole_extend(x, axis_u=0, axis_v=1) if axis == 1 and domain.pole_offset else x
        n = y.shape[axis]
        power = np.abs(np.fft.rfft(y, axis=axis)) ** 2
        power = np.moveaxis(power, axis, 0).reshape(power.shape[axis], -1).sum(axis=1)
        power[1 : (n + 1) // 2] *= 2.0  # every mode but the mean and Nyquist stands for +-k
        total = power.sum()
        out[direction] = float(power[n // 3 + 1 :].sum() / total) if total > 0 else 0.0
    return out


def _spectral_jets(values, ops: ChartDerivatives, name: str) -> dict:
    """Jets of positions sampled at the nodes of a closed chart, all 15
    partials by spectral differentiation. Refuses values that are not
    finite, or whose spectral tail exceeds ``SPECTRAL_TAIL_BOUND``."""
    x = np.asarray(values, dtype=float)
    bad = ~np.all(np.isfinite(x), axis=tuple(range(2, x.ndim)))
    if np.any(bad):
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise ConfigError(f"{name}: non-finite position at node ({i}, {j})")
    for direction, share in spectral_tail(x, ops.domain).items():
        if share > SPECTRAL_TAIL_BOUND:
            nu, nv = ops.domain.nu, ops.domain.nv
            fix = "use a finer grid"
            if direction == "v" and ops.domain.pole_offset:
                fix = f"both ends of v_range = {ops.domain.v_range} must be poles of the chart; if they are, {fix}"
            raise ConfigError(
                f"{name}: spectral tail {share:.2e} along {direction} exceeds {SPECTRAL_TAIL_BOUND:g}, so the "
                f"{nu}x{nv} grid does not resolve it and its jets would be aliased; {fix}"
            )
    # one forward transform along u, then one along v per u-order
    du = ops.derivatives(x, 0, range(JET_ORDER + 1))
    dv = [ops.derivatives(du[a], 1, range(JET_ORDER + 1 - a)) for a in range(JET_ORDER + 1)]
    return {(a, b): dv[a][b] for a, b in MULTI_INDICES}


def _stencil_tables(h: float):
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    return {m: fd_weights(offsets, m) for m in range(JET_ORDER + 1)}


def _stencil_jets(f, domain: PatchDomain) -> dict:
    """Numeric jets of a position map on an open chart.

    The map is called once at each offset that some 5-point stencil at
    step h (or h/2) uses, in ascending (du, dv) order, and each value is
    folded into every finite-difference sum at once, so no evaluation
    outlives its offset. That order is each sum's own term order.
    """
    UU, VV = domain.meshes()
    h = 1e-3 * domain.extent
    steps = (h, h / 2.0)
    terms = {}  # offset -> [(sum key, weight)]
    for k, step in enumerate(steps):
        w = _stencil_tables(step)
        for a, b in MULTI_INDICES[1:]:
            for i in range(-2, 3) if a > 0 else [0]:
                wi = w[a][i + 2] if a > 0 else 1.0
                for j in range(-2, 3) if b > 0 else [0]:
                    wj = w[b][j + 2] if b > 0 else 1.0
                    terms.setdefault((i * step, j * step), []).append(((a, b, k), wi * wj))

    acc, centre = {}, None
    for du, dv in sorted(terms):
        x = np.asarray(f(UU + du, VV + dv), dtype=float)
        if du == 0.0 and dv == 0.0:
            centre = x
        for key, c in terms[(du, dv)]:
            if key in acc:
                acc[key] += c * x
            else:
                acc[key] = 0.0 + c * x  # a sum started at 0.0 (sign of zero included)

    jets = {(0, 0): centre}
    for a, b in MULTI_INDICES[1:]:
        d1, d2 = acc.pop((a, b, 0)), acc.pop((a, b, 1))
        # Richardson extrapolation at the leading error order h^p
        fac = 2.0 ** min(4 if k <= 2 else 2 for k in (a, b) if k > 0)
        jets[(a, b)] = (fac * d2 - d1) / (fac - 1.0)
    return jets


def numeric_jets(f, domain: PatchDomain, name: str = "position map") -> dict:
    """All chart partials of a position map up to order 4 at the grid nodes.

    On a closed chart the map is evaluated once, at the grid nodes, and
    differentiated spectrally. On an open chart, 5-point centered stencils
    at steps h = 1e-3 x the domain extent and h/2 are combined by
    Richardson extrapolation at the leading error order of each
    multi-index; the map is evaluated once at each of the 41 offsets the
    stencils use. ``name`` labels the error raised on a closed chart when
    the map is not finite at a node or the grid does not resolve it.
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
    """Sample a user-supplied position map with numeric jets (spectral on a
    closed chart, stencils on an open one; see ``numeric_jets``)."""
    jets = numeric_jets(f, domain, name)
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
    name = f"{s.name}+deform"
    out = {}
    for t in ts:
        if sf.model is Model.EUCLIDEAN:
            x = p + (t * uj).times_vector(n)
        else:
            theta = (t / sf.radius) * uj
            th = theta.value
            if sf.model is Model.SPHERE:
                c, sn, sign = np.cos(th), np.sin(th), -1.0
            else:
                c, sn, sign = np.cosh(th), np.sinh(th), 1.0
            # (cos, sin)' = (-sin, cos) and (cosh, sinh)' = (sinh, cosh)
            cos_t = theta.compose(c, sign * sn, sign * c)
            sin_t = theta.compose(sn, c, sign * sn)
            x = cos_t.times_vector(p) + sf.radius * sin_t.times_vector(n)
        d = SurfaceSample(
            domain=s.domain,
            sf=sf,
            jets=dict(zip(TAYLOR_INDICES, x.parts)),
            orientation_sign=s.orientation_sign,
            provenance=Provenance.NUMERIC_JETS,
            name=name,
        )
        check_immersion(d, where=f"{name} at t = {t:g}")
        out[t] = d
    return out
