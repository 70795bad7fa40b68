"""Parametric surface patches on structured grids.

A SurfaceSample carries the partial derivatives (jets) of the immersion up
to total order 4 at every grid node. Catalog surfaces get them in closed
form. Every other sample (a user position map, a deformed surface) gets
them from sampled positions, and the chart decides how:

- On a closed chart (periodic u, and v periodic or pole-offset) the
  positions are needed at the grid nodes only. All 15 partials come from
  ``gridops.ChartDerivatives``: FFT along periodic directions, and the
  double-Fourier pole extension along a pole-offset v. A spectral-tail
  guard refuses grids that do not resolve the positions.
- On an open chart, 5-point stencils at steps h and h/2 (``FdConfig``)
  evaluate a position map at 41 offsets around the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, DegenerateMetricError
from .gridops import ChartDerivatives, _pole_extend, fd_weights
from .spaceform import SpaceForm

JET_ORDER = 4


@dataclass(frozen=True)
class PatchDomain:
    """Rectangular chart domain with grid counts and periodicity flags."""

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


@dataclass(frozen=True)
class FdConfig:
    """Stencil configuration for numeric jets (5-point + one Richardson level).

    ``base_step`` applies to open-chart stencils only: on a closed chart
    jets are spectral and need no step. ``richardson`` also picks the
    oracle's step extrapolation in ``variations._differences``.
    """

    base_step: float | None = None  # default: 1e-3 x domain extent
    richardson: bool = True

    def step_for(self, domain: PatchDomain) -> float:
        return self.base_step if self.base_step is not None else 1e-3 * domain.extent


MULTI_INDICES = [(a, b) for a in range(JET_ORDER + 1) for b in range(JET_ORDER + 1) if a + b <= JET_ORDER]


@dataclass
class SurfaceSample:
    """Grid of immersion jets plus evaluation hooks for off-grid points."""

    domain: PatchDomain
    sf: SpaceForm
    jets: dict[tuple[int, int], np.ndarray]
    orientation_sign: float = 1.0
    provenance: Provenance = Provenance.NUMERIC_JETS
    position_map: object = None  # callable (U, V) -> (..., dim); None on closed-chart deformations
    raw_normal_map: object = None  # callable (U, V) -> unoriented unit normal
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

    def normal_at(self, U, V) -> np.ndarray:
        """Oriented unit normal at arbitrary chart points."""
        return self._position_and_normal(U, V, want_position=False)[1]

    def _position_and_normal(self, U, V, want_position: bool = True):
        """(position or None, oriented unit normal) at chart points. The
        position map is evaluated once, and not at all when neither the
        caller nor the normal needs it (the Euclidean normal uses only the
        tangents)."""
        need_p = self.raw_normal_map is None and self.sf.ambient_dim != 3
        if (want_position or self.raw_normal_map is None) and self.position_map is None:
            raise ConfigError(f"{self.name} has no position map; cannot evaluate it off the grid")
        p = self.position_map(U, V) if want_position or need_p else None
        if self.raw_normal_map is not None:
            return p, self.orientation_sign * self.raw_normal_map(U, V)
        h = 1e-5 * self.domain.extent
        ru = _fd1(self.position_map, U, V, h, axis="u")
        rv = _fd1(self.position_map, U, V, h, axis="v")
        return p, self.orientation_sign * _eps_normal(self.sf, p, ru, rv)


def _fd1(f, U, V, h, axis):
    if axis == "u":
        return (8 * (f(U + h, V) - f(U - h, V)) - (f(U + 2 * h, V) - f(U - 2 * h, V))) / (12 * h)
    return (8 * (f(U, V + h) - f(U, V - h)) - (f(U, V + 2 * h) - f(U, V - 2 * h))) / (12 * h)


def _eps_normal(sf: SpaceForm, p, ru, rv) -> np.ndarray:
    """Unit normal tangent to the model quadric, via generalized cross product."""
    if sf.ambient_dim == 3:
        n = np.cross(ru, rv)
        norm = np.linalg.norm(n, axis=-1, keepdims=True)
        return n / norm
    signs = sf.metric_signs
    n = _quadric_normal(signs, p, ru, rv)  # p is the quadric direction in both 4-d models
    nn = np.einsum("...i,i,...i->...", n, signs, n)
    return n / np.sqrt(np.abs(nn))[..., None]


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
    signs = sample.sf.metric_signs
    r_u, r_v = sample.jets[(1, 0)], sample.jets[(0, 1)]
    basis = np.stack([r_u, r_v], axis=-2)
    return np.einsum("...ik,k,...jk->...ij", basis, signs, basis)


def check_immersion(sample: SurfaceSample, where: str = "") -> None:
    g = induced_metric(sample)
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    scale = np.max(np.abs(g)) ** 2 + 1e-300
    bad = det <= 1e-12 * scale
    if np.any(bad):
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise DegenerateMetricError(
            f"degenerate metric at node ({i}, {j}){' in ' + where if where else ''}",
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
    reach 1.6e-7, and 1.3e-3 at 1.4e-14. Catalog charts, numeric-jet
    spheres and every deformed oracle sample measure <= 3e-32; a field
    cos(50 u) cos(3 v) deforming the 128 x 64 torus by t = 0.01 measures
    5e-6 along u.
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
            raise ConfigError(
                f"{name}: spectral tail {share:.2e} along {direction} exceeds {SPECTRAL_TAIL_BOUND:g}, so the "
                f"{nu}x{nv} grid does not resolve it and its jets would be aliased; use a finer grid"
            )
    du = [x] + [ops.partial(x, a, 0) for a in range(1, JET_ORDER + 1)]
    return {(a, b): du[a] if b == 0 else ops.partial(du[a], 0, b) for a, b in MULTI_INDICES}


def _stencil_tables(h: float):
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    return {m: fd_weights(offsets, m) for m in range(JET_ORDER + 1)}


def _stencil_jets(evaluate, domain: PatchDomain, fd: FdConfig) -> list:
    """Numeric jets of several position maps that share one evaluation per
    stencil offset.

    ``evaluate(U, V)`` returns the maps' values on the shifted grid. It is
    called once at each offset that some 5-point stencil at step h (or h/2)
    uses, in ascending (du, dv) order, and each value is folded into every
    finite-difference sum at once, so no evaluation outlives its offset.
    That order is each sum's own term order, so the sums do not depend on
    how many maps share the pass.
    """
    UU, VV = domain.meshes()
    h = fd.step_for(domain)
    steps = [h, h / 2.0] if fd.richardson else [h]
    terms = {}  # offset -> [(sum key, weight)]
    for k, step in enumerate(steps):
        w = _stencil_tables(step)
        for a, b in MULTI_INDICES[1:]:
            for i in range(-2, 3) if a > 0 else [0]:
                wi = w[a][i + 2] if a > 0 else 1.0
                for j in range(-2, 3) if b > 0 else [0]:
                    wj = w[b][j + 2] if b > 0 else 1.0
                    terms.setdefault((i * step, j * step), []).append(((a, b, k), wi * wj))

    sums, centre = None, None
    for du, dv in sorted(terms):
        values = [np.asarray(x, dtype=float) for x in evaluate(UU + du, VV + dv)]
        if sums is None:
            sums = [{} for _ in values]
        if du == 0.0 and dv == 0.0:
            centre = values
        for acc, x in zip(sums, values):
            for key, c in terms[(du, dv)]:
                if key in acc:
                    acc[key] += c * x
                else:
                    acc[key] = 0.0 + c * x  # a sum started at 0.0 (sign of zero included)

    out = []
    for acc, x0 in zip(sums, centre):
        jets = {(0, 0): x0}
        for a, b in MULTI_INDICES[1:]:
            d1 = acc.pop((a, b, 0))
            if len(steps) == 1:
                jets[(a, b)] = d1
                continue
            d2 = acc.pop((a, b, 1))
            p = min(4 if k <= 2 else 2 for k in (a, b) if k > 0)
            fac = 2.0**p
            jets[(a, b)] = (fac * d2 - d1) / (fac - 1.0)
        out.append(jets)
    return out


def numeric_jets(f, domain: PatchDomain, fd: FdConfig = FdConfig(), name: str = "position map") -> dict:
    """All chart partials of a position map up to order 4 at the grid nodes.

    On a closed chart the map is evaluated once, at the grid nodes, and
    differentiated spectrally; ``fd`` is not used, and ``name`` labels the
    error raised when the grid does not resolve the map. On an open chart,
    5-point centered stencils at steps h and h/2 are combined by Richardson
    extrapolation at the leading error order of each multi-index; the map
    is evaluated once at each of the 41 offsets the stencils use (25
    without Richardson).
    """
    if domain.closed:
        return _spectral_jets(f(*domain.meshes()), ChartDerivatives(domain), name)
    return _stencil_jets(lambda U, V: (f(U, V),), domain, fd)[0]


def sample_callable(
    f,
    domain: PatchDomain,
    sf: SpaceForm = SpaceForm.euclidean(),
    fd: FdConfig = FdConfig(),
    orientation_sign: float = 1.0,
    name: str = "callable",
) -> SurfaceSample:
    """Sample a user-supplied position map with numeric jets (spectral on a
    closed chart, stencils on an open one; see ``numeric_jets``)."""
    jets = numeric_jets(f, domain, fd, name)
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


def deform_normal(s: SurfaceSample, u, t: float, fd: FdConfig = FdConfig()) -> SurfaceSample:
    """Geodesic normal deformation: each point moves distance t*u(x) along N.

    In the Euclidean model this is exactly r0 + t u N. The deformed sample
    gets numeric jets: spectral jets of the moved grid on a closed chart,
    stencil jets of the composed position map on an open one. This is the
    one-step case of ``deform_normal_many``.
    """
    return deform_normal_many(s, u, (t,), fd)[t]


def deform_normal_many(s: SurfaceSample, u, ts, fd: FdConfig = FdConfig()) -> dict:
    """Geodesic normal deformations by several steps: {t: deformed sample}.

    Each deformed sample is the one ``deform_normal(s, u, t, fd)`` gives.
    The chart picks how its jets are built:

    - Closed chart: from grid values only. The points p, the oriented
      normal N (from the jets of s) and the field values at the nodes are
      moved by one ``geodesic_step`` for all steps, and each moved grid is
      differentiated spectrally. No position map, normal map or field
      evaluator is called, and the deformed samples carry no position map.
    - Open chart: 5-point stencils of the composed position map, with the
      position, normal and field evaluated once per stencil offset for all
      steps together. ``s`` needs a position map.
    """
    ts = [float(t) for t in ts]
    if not ts:
        raise ConfigError("deform_normal_many needs at least one step")
    if not np.all(np.isfinite(ts)):
        raise ConfigError(f"deformation steps must be finite (got {ts})")
    if len(set(ts)) != len(ts):
        raise ConfigError(f"deformation steps must be distinct (got {ts}; 0.0 and -0.0 are one step)")
    sf = s.sf
    name = f"{s.name}+deform"
    if s.domain.closed:
        p = s.positions
        n = s.orientation_sign * _eps_normal(sf, p, s.jets[(1, 0)], s.jets[(0, 1)])
        uv = np.broadcast_to(np.asarray(u.values if hasattr(u, "values") else u, dtype=float), s.shape)
        moved = sf.geodesic_step(p, n, np.multiply.outer(ts, uv))
        ops = s.chart_ops()
        jets = [_spectral_jets(x, ops, f"{name} at t = {t:g}") for t, x in zip(ts, moved)]
        maps = [None] * len(ts)
    else:
        if s.position_map is None:
            raise ConfigError("deform_normal on an open chart needs a sample with a position map")
        u_eval = _field_evaluator(u, s)

        def moved_all(U, V):
            # one geodesic_step call for all steps: a leading step axis on the
            # distances broadcasts over p and n, which are checked once
            p, n = s._position_and_normal(U, V)
            uv = np.broadcast_to(u_eval(U, V), np.shape(U))
            return sf.geodesic_step(p, n, np.multiply.outer(ts, uv))

        def moved_by(t):
            def moved(U, V):
                return sf.geodesic_step(*s._position_and_normal(U, V), t * u_eval(U, V))

            return moved

        jets = _stencil_jets(moved_all, s.domain, fd)
        maps = [moved_by(t) for t in ts]

    out = {}
    for t, jt, pmap in zip(ts, jets, maps):
        d = SurfaceSample(
            domain=s.domain,
            sf=sf,
            jets=jt,
            orientation_sign=s.orientation_sign,
            provenance=Provenance.NUMERIC_JETS,
            position_map=pmap,
            name=name,
        )
        check_immersion(d, where="deform_normal")
        out[t] = d
    return out


def _field_evaluator(u, s: SurfaceSample):
    """Off-grid evaluator for a scalar field on an open chart: analytic when
    available, spline interpolation of grid values otherwise."""
    ev = getattr(u, "eval_fn", None)
    if ev is not None:
        return ev
    values = np.asarray(u.values if hasattr(u, "values") else u, dtype=float)
    return _spline_evaluator(values, s.domain)


def _spline_evaluator(values: np.ndarray, domain: PatchDomain):
    from scipy.interpolate import RectBivariateSpline

    un = domain.u_nodes.copy()
    vn = domain.v_nodes.copy()
    vals = values
    pad = 5
    if domain.periodic_u:
        lu = domain.u_range[1] - domain.u_range[0]
        un = np.concatenate([un[-pad:] - lu, un, un[:pad] + lu])
        vals = np.concatenate([vals[-pad:], vals, vals[:pad]], axis=0)
    if domain.periodic_v:
        lv = domain.v_range[1] - domain.v_range[0]
        vn = np.concatenate([vn[-pad:] - lv, vn, vn[:pad] + lv])
        vals = np.concatenate([vals[:, -pad:], vals, vals[:, :pad]], axis=1)
    spl = RectBivariateSpline(un, vn, vals, kx=min(5, len(un) - 1), ky=min(5, len(vn) - 1))

    def ev(U, V):
        return spl.ev(np.asarray(U, dtype=float), np.asarray(V, dtype=float))

    return ev
