"""Functional values, first/second variations, Euler-Lagrange residuals,
and finite-difference deformation oracles.

Every closed form is built from the derivatives of H and K along a normal
deformation with speed f, each written once:

    H'[f] = Lap f / 2 + (2H^2 - K + 2 k0) f,
    K'[f] = 2H Lap f - <h, Hess f> + 2HK f,

with dS' = -2Hu dS. The first variation is the integral of
E_H H'[u] + E_K K'[u] - 2H E u; both operators are self-adjoint (2Hg - h
is divergence-free by Codazzi), so the Euler-Lagrange residual is
H'[E_H] + K'[E_K] - 2H E. The second variation differentiates once more
along u: H'' and K'' take the derivatives Lap'[u, f] and <h, Hess>'[u, f]
of the operators themselves, the same formulas the "laplacian_f" and
"h_hess_f" evolution checks test node by node; at a fixed chart node H
and K also move by u <grad H, grad u> and u <grad K, grad u>, so F'' holds
on open charts too. The oracles recompute the same quantities on
actually-deformed surfaces and difference them, so every formula is
validated against the definition it encodes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .calculus import (
    ScalarField,
    area,
    bilinear,
    contract,
    curvature_field,
    grad_inner,
    h_squared,
    hessian,
    integrate,
    metric_trace,
    shape_tensor,
)
from .curvature import _MAT_MUL, TAYLOR_INDICES, Taylor2, curvature_scalars, fundamental_forms
from .densities import ORDERS, EnergyDensity
from .errors import ConfigError, NotCriticalError
from .spaceform import Model
from .surface import SurfaceSample, _deformed_samples


@dataclass
class VariationReport:
    formula_value: float
    oracle_value: float
    abs_error: float
    rel_error: float
    fd_step: float
    convergence_order: float


def _report(formula, oracle, d1, d2, step: float) -> VariationReport:
    """Report of one oracle check, for a number or a per-node array alike,
    from the closed form, the Richardson value and the differences at h1
    and h1/2. Errors are sup norms, relative to the larger sup of the two
    values floored at unit scale, so a vanishing formula reports its
    absolute discrepancy. The order is log2(e_h / e_{h/2}), 2 when either
    error is at the round-off floor. An array reports the sups of the two
    values, a number the signed values."""
    f_sup, o_sup = float(np.max(np.abs(formula))), float(np.max(np.abs(oracle)))
    abs_err = float(np.max(np.abs(formula - oracle)))
    e1, e2 = float(np.max(np.abs(d1 - formula))), float(np.max(np.abs(d2 - formula)))
    floor = 1e-11 * (1.0 + f_sup)
    scalar = np.ndim(formula) == 0
    return VariationReport(
        formula_value=float(formula) if scalar else f_sup,
        oracle_value=float(oracle) if scalar else o_sup,
        abs_error=abs_err,
        rel_error=abs_err / max(f_sup, o_sup, 1.0),
        fd_step=float(step),
        convergence_order=2.0 if (e1 <= floor or e2 <= floor) else math.log(e1 / e2) / math.log(2.0),
    )


# the oracle pass bounds (largest rel_error, least convergence order or None)
# of verify-all's criteria 3, 6 and 5, which the CLI's exit codes share
ORACLE_BOUNDS = {"first_variation": (1e-5, 1.9), "second_variation": (1e-4, None), "evolution": (1e-4, 1.9)}


def oracle_passes(check: str, rel_error: float, order: float | None = None) -> bool:
    rel, least = ORACLE_BOUNDS[check]
    return rel_error <= rel and (least is None or order >= least)


def functional_value(s: SurfaceSample, E: EnergyDensity) -> float:
    """F = integral of E(H, K) dS."""
    cs = curvature_scalars(s)
    (Ev,) = E.guarded(cs.H, cs.K, (0, 0))
    return integrate(Ev, s)


def _operators(s: SurfaceSample) -> SimpleNamespace:
    """The curvature scalars of s and the operators the variation formulas
    read, each built once per argument: Hess f serves Lap f, <h, Hess f>
    and <Hess u, Hess f>, and ``field`` holds one H and one K field, so
    ``grad`` finds them again."""
    cs = curvature_scalars(s)
    hess = cache(lambda x: hessian(x, s))
    h_t = cache(lambda: shape_tensor(s))
    return SimpleNamespace(
        s=s,
        H=cs.H,
        K=cs.K,
        k0=s.sf.k0,
        h_norm_sq=cs.h_norm_sq,
        hess=hess,
        lap=cache(lambda x: metric_trace(hess(x), s).values),
        h_hess=cache(lambda x: contract(h_t(), hess(x), s).values),
        grad=cache(lambda x, y: grad_inner(x, y, s)),
        h=h_t,
        h2=cache(lambda: h_squared(s)),
        field=cache(lambda which: curvature_field(s, which)),
    )


def _dH(ops: SimpleNamespace, f: ScalarField) -> np.ndarray:
    """H'[f] = Lap f / 2 + (2H^2 - K + 2 k0) f."""
    return 0.5 * ops.lap(f) + (2.0 * ops.H**2 - ops.K + 2.0 * ops.k0) * f.values


def _dK(ops: SimpleNamespace, f: ScalarField, plus=0.0) -> np.ndarray:
    """plus + K'[f], K'[f] = 2H Lap f - <h, Hess f> + 2HK f: with plus = H'[E_H],
    el_residual sums its six terms in one left-to-right chain, as the expanded form does."""
    return plus + 2.0 * ops.H * ops.lap(f) - ops.h_hess(f) + 2.0 * ops.H * ops.K * f.values


def _laplacian_dot(ops: SimpleNamespace, u: ScalarField, f: ScalarField) -> np.ndarray:
    """Lap'[u, f]: the derivative of Lap f along u, f held fixed on the chart."""
    uv = u.values
    return (
        2.0 * uv * ops.h_hess(f)
        + 2.0 * uv * ops.grad(ops.field("H"), f)
        + 2.0 * bilinear(ops.h(), u, f, ops.s)
        - 2.0 * ops.H * ops.grad(u, f)
    )


def _h_hess_dot(ops: SimpleNamespace, u: ScalarField, f: ScalarField) -> np.ndarray:
    """<h, Hess>'[u, f]: the derivative of <h, Hess f> along u, f held fixed on the chart."""
    uv, s = u.values, ops.s
    # <grad |h|^2, grad f> via |h|^2 = 4H^2 - 2(K - k0)
    grad_h2_f = 8.0 * ops.H * ops.grad(ops.field("H"), f) - 2.0 * ops.grad(ops.field("K"), f)
    return (
        contract(ops.hess(u), ops.hess(f), s).values
        + 3.0 * uv * contract(ops.h2(), ops.hess(f), s).values
        + uv * ops.k0 * ops.lap(f)
        + 2.0 * bilinear(ops.h2(), u, f, s)
        + 0.5 * uv * grad_h2_f
        - ops.h_norm_sq * ops.grad(u, f)
    )


def first_variation(s: SurfaceSample, E: EnergyDensity, u: ScalarField) -> float:
    """Normal-deformation derivative of F in direction u, in closed form:
    integral of E_H H'[u] + E_K K'[u] - 2H E u dS."""
    return _first_variation(_operators(s), E, u)


def _first_variation(ops: SimpleNamespace, E: EnergyDensity, u: ScalarField) -> float:
    """``first_variation`` over the operator cache ``ops`` of its sample."""
    Ev, EH, EK = E.guarded(ops.H, ops.K, (0, 0), (1, 0), (0, 1))
    integrand = EH * _dH(ops, u) + EK * _dK(ops, u) - 2.0 * ops.H * Ev * u.values
    return integrate(integrand, ops.s)


def _composed_field(s: SurfaceSample, table: dict, shift: tuple) -> ScalarField:
    """Field G = d^a_H d^b_K E, (a, b) = shift, from the values ``table`` of
    E's partials by order: G and its (H, K)-partials to order 2 are the table
    shifted by (a, b), and its jet composes those of H and K by the chain rule."""
    a, b = shift
    G = [table[(a + i, b + j)] for i, j in TAYLOR_INDICES]
    H, K = (curvature_field(s, which).taylor() for which in ("H", "K"))
    return ScalarField(G[0], s, jet=Taylor2.compose2(H, K, *G))


def _el_residual(s: SurfaceSample, E: EnergyDensity) -> tuple[ScalarField, np.ndarray]:
    """``el_residual`` and the values of E, from one guarded evaluation of
    all ten partials of E: the jets of E_H and E_K compose those of H and K."""
    ops = _operators(s)
    table = dict(zip(ORDERS, E.guarded(ops.H, ops.K, *ORDERS)))
    EH_field, EK_field = (_composed_field(s, table, shift) for shift in ((1, 0), (0, 1)))
    Ev = table[(0, 0)]
    return ScalarField(_dK(ops, EK_field, plus=_dH(ops, EH_field)) - 2.0 * ops.H * Ev, s), Ev


def el_residual(s: SurfaceSample, E: EnergyDensity) -> ScalarField:
    """Pointwise Euler-Lagrange residual of F, the adjoint of the first
    variation: H'[E_H] + K'[E_K] - 2H E. It vanishes identically exactly
    when the surface is critical among closed surfaces.
    """
    return _el_residual(s, E)[0]


# relative size of the Euler-Lagrange residual below which an immersion
# counts as critical (or, for a constant residual, volume-constrained
# critical)
CRITICALITY_TOL = 1e-5


def _area_mean(f: ScalarField) -> float:
    """Mean of f over its sample: the integral of f dS, with ``integrate``'s
    quadrature, over the area."""
    return integrate(f, f.sample) / area(f.sample)


def _criticality(s: SurfaceSample, E: EnergyDensity):
    """Classify the immersion: returns (kind, multiplier, sizes) with kind
    one of 'critical', 'constrained', 'not_critical'. The multiplier is the
    mean EL residual (``_area_mean``), or zero at a critical immersion;
    ``sizes`` states the measured residual against the bound, for messages.
    This is the one place either is decided."""
    res, Ev = _el_residual(s, E)
    scale = 1.0 + np.max(np.abs(Ev)) * (1.0 + 2.0 * np.max(np.abs(curvature_scalars(s).H)))
    bound = CRITICALITY_TOL * scale
    mean = _area_mean(res)
    sup = float(np.max(np.abs(res.values)))
    sizes = f"sup |EL residual| = {sup:.3e}, bound {bound:.3e}, mean residual {mean:.6g}"
    if sup <= bound:
        return "critical", 0.0, sizes
    if np.max(np.abs(res.values - mean)) <= bound:
        return "constrained", mean, sizes
    return "not_critical", mean, sizes


def _second_variation_multiplier(s: SurfaceSample, E: EnergyDensity, u: ScalarField) -> float:
    """The multiplier of ``_criticality`` where the second-variation
    formula holds: at a critical immersion, or on a zero-mean field at a
    volume-constrained critical one. Raises NotCriticalError elsewhere."""
    kind, lam, sizes = _criticality(s, E)
    if kind == "not_critical":
        raise NotCriticalError(
            f"surface is not critical for this density ({sizes}); the second-variation "
            "formula only holds there (pass force=True to evaluate anyway)"
        )
    if kind == "constrained":
        mean_u = _area_mean(u)
        bound = 1e-8 * (1.0 + float(np.max(np.abs(u.values))))
        if abs(mean_u) > bound:
            raise NotCriticalError(
                f"surface is only volume-constrained critical ({sizes}); the variation "
                f"field must have zero mean (|mean u| = {abs(mean_u):.3e}, bound {bound:.3e}; "
                "or pass force=True)"
            )
    return lam


def second_variation(s: SurfaceSample, E: EnergyDensity, u: ScalarField, force: bool = False) -> float:
    """F''(0) along the geodesic normal deformation of u at fixed chart
    nodes, on any chart, at an immersion the pointwise EL residual finds
    critical.

    At a volume-constrained critical immersion (pointwise EL residual equal
    to a nonzero constant) the expression is valid on variation fields with
    zero mean; this is checked. ``force=True`` evaluates the expression
    regardless, outside its stated validity.
    """
    if not force:
        _second_variation_multiplier(s, E, u)
    return _second_variation_integral(_operators(s), E, u)


def _second_derivatives(ops: SimpleNamespace, u: ScalarField) -> tuple:
    """H', K' and the second t-derivatives along u at a fixed chart node:
    H_tt = H'' + u <grad H, grad u>, K_tt = K'' + u <grad K, grad u> and
    (dS)_tt / dS = 2(K - 2 k0) u^2 + |grad u|^2, with H'' and K'' through the
    operators' derivatives; the three gradients are ``ops.grad`` cache hits."""
    H, K, uv = ops.H, ops.K, u.values
    dH, dK, lap_dot = _dH(ops, u), _dK(ops, u), _laplacian_dot(ops, u, u)
    ddH = 0.5 * lap_dot + (4.0 * H * dH - dK) * uv + uv * ops.grad(ops.field("H"), u)
    ddK = 2.0 * dH * ops.lap(u) + 2.0 * H * lap_dot - _h_hess_dot(ops, u, u) + 2.0 * (dH * K + H * dK) * uv
    ddK += uv * ops.grad(ops.field("K"), u)
    return dH, dK, ddH, ddK, 2.0 * (K - 2.0 * ops.k0) * uv**2 + ops.grad(u, u)


def _second_variation_integral(ops: SimpleNamespace, E: EnergyDensity, u: ScalarField) -> float:
    """F''(0) over the operators ``ops``: the integral of the second
    t-derivative of E(H, K) dS at each chart node, d^2E(H', K')
    + E_H (H_tt - 4Hu H') + E_K (K_tt - 4Hu K') + E (dS)_tt / dS."""
    H, uv = ops.H, u.values
    Ev, EH, EK, EHH, EHK, EKK = E.guarded(H, ops.K, (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    dH, dK, ddH, ddK, ddS = _second_derivatives(ops, u)
    integrand = (
        EHH * dH**2
        + 2.0 * EHK * dH * dK
        + EKK * dK**2
        + EH * (ddH - 4.0 * H * uv * dH)
        + EK * (ddK - 4.0 * H * uv * dK)
        + Ev * ddS
    )
    return integrate(integrand, ops.s)


def volume_functional(s: SurfaceSample) -> float:
    """Signed flux volume (1/3) integral of <r, N> dS (Euclidean model).

    Its deformation derivatives are ``volume_variations``, in the
    orientation carried by the sample, whatever that orientation is.
    """
    if s.sf.model is not Model.EUCLIDEAN:
        raise ConfigError("the flux volume functional is defined in the Euclidean model")
    flux = s.sf.flat_inner(s.positions, fundamental_forms(s).N)
    return integrate(flux, s) / 3.0


def volume_variations(s: SurfaceSample, u: ScalarField) -> tuple[float, float]:
    """(first, second) deformation derivatives of the enclosed volume:
    integral of u dS and integral of -2 H u^2 dS; on an open patch, for
    compactly supported u only (edge terms are left out)."""
    cs = curvature_scalars(s)
    return integrate(u, s), integrate(-2.0 * cs.H * u.values**2, s)


def _default_step(s: SurfaceSample, u: ScalarField, order: int = 1) -> float:
    # step relative to the smallest curvature radius, 1 / max(|H| + d) over the
    # principal curvatures H +- d, and the field size; the second difference divides
    # by h^2, so it gets a smaller base step to keep truncation below the target tolerances
    cs = curvature_scalars(s)
    kappa = max(np.max(np.abs(cs.H) + np.sqrt(np.maximum(cs.H**2 - cs.K_E, 0.0))), 1e-12)
    umax = max(float(np.max(np.abs(u.values))), 1e-12)
    return (1e-2 if order == 1 else 5e-3) * (1.0 / (kappa * umax))


def _differences(s: SurfaceSample, u: ScalarField, order: int, measure):
    """Centered differences of the values ``measure(sample)`` returns (a
    list of numbers or arrays) along the geodesic normal deformation of u.

    Deforms once to t = +-h1, +-h2 with h1 the default step and h2 = h1/2,
    measures each deformed sample once and drops it before the next is
    built, so one is alive at a time, and for order 2 measures s itself as
    the centre, first. Each pair +-t is differenced
    as soon as both are measured, and its measures are dropped. Returns
    h1, the differences at h1 and at h2, and their Richardson value.
    """
    h1 = _default_step(s, u, order)
    h2 = 0.5 * h1
    centre = measure(s) if order == 2 else None

    def difference(plus, minus, t):
        if order == 1:
            return [(a - b) / (2.0 * t) for a, b in zip(plus, minus)]
        return [(a - 2.0 * c + b) / t**2 for a, c, b in zip(plus, centre, minus)]

    m, d = {}, []
    for t, st in _deformed_samples(s, u, (h1, -h1, h2, -h2)):
        m[t] = measure(st)
        del st  # before the next sample is built
        if -t in m:  # the pair's first step -t is h1 or h2
            d.append(difference(m.pop(-t), m.pop(t), -t))
    d1, d2 = d
    # h1 / h2 = 2 exactly, so the h^2 error terms cancel in (4 d2 - d1) / 3
    best = [(4.0 * b - a) / 3.0 for a, b in zip(d1, d2)]
    return h1, d1, d2, best


def fd_variation_oracle_many(
    s: SurfaceSample,
    Es: Sequence[EnergyDensity],
    u: ScalarField,
    order: int = 1,
    allow_open: bool = False,
    force: bool = False,
) -> list[VariationReport]:
    """Difference quotients of F for several densities over one set of
    deformed samples, each compared against the closed-form variation of
    the same order; returns one VariationReport per density.

    For order 2 the differenced functional is the augmented F - lambda * V,
    with each density's multiplier lambda from the classification that
    ``second_variation`` checks: zero at a critical immersion, the
    mean Euler-Lagrange residual (``_area_mean``) at a constrained-critical
    one, where the field must have zero mean unless ``force`` is set. The
    formula side is augmented identically: lambda times the second
    variation of the volume (``volume_variations``) is subtracted, so both
    columns of the report describe the same augmented functional. (Along a
    symmetry direction such as a translation of the sphere the augmented
    value is zero while the plain closed-form expression is not; both are
    available, their difference being exactly lambda times the volume
    term.) An open chart needs ``allow_open=True``: there a nonzero lambda
    needs compactly supported u, as ``volume_variations`` does.
    """
    return _oracle_core(s, Es, u, order, allow_open, force)[1]


def _oracle_core(
    s: SurfaceSample,
    Es: Sequence[EnergyDensity],
    u: ScalarField,
    order: int,
    allow_open: bool,
    force: bool,
) -> tuple[list, list]:
    """``fd_variation_oracle_many``, returning with its reports the closed-form
    variation of F itself for each density: the value ``first_variation``
    or ``second_variation`` gives, before the multiplier term. A caller
    that reports both pays for each classification and integral once, and
    for the operators of u, which are dropped before any deformed sample."""
    if order not in (1, 2):
        raise ConfigError("oracle order must be 1 or 2")
    if not s.domain.closed and not allow_open:
        raise ConfigError("an oracle on a non-closed patch requires allow_open=True")
    lams, values, formulas = [], [], []
    ops = _operators(s)
    for E in Es:
        if order == 1:
            lam, value = 0.0, _first_variation(ops, E, u)
        else:
            lam = _criticality(s, E)[1] if force else _second_variation_multiplier(s, E, u)
            value = _second_variation_integral(ops, E, u)
        lams.append(lam)
        values.append(value)
        formulas.append(value - lam * volume_variations(s, u)[1] if lam != 0.0 else value)
    del ops

    def measure(st: SurfaceSample) -> list:
        vol = volume_functional(st) if any(lams) else 0.0
        return [functional_value(st, E) - lam * vol for E, lam in zip(Es, lams)]

    h1, d1, d2, oracles = _differences(s, u, order, measure)
    return values, [_report(*row, h1) for row in zip(formulas, oracles, d1, d2)]


def fd_variation_oracle(
    s: SurfaceSample,
    E: EnergyDensity,
    u: ScalarField,
    order: int = 1,
    allow_open: bool = False,
    force: bool = False,
) -> VariationReport:
    """Difference quotient of F along the geodesic normal deformation of u,
    compared against the closed-form variation of the same order: the
    one-density case of ``fd_variation_oracle_many``."""
    return fd_variation_oracle_many(s, (E,), u, order, allow_open, force)[0]


# each quantity the evolution checks move: its closed-form derivative along
# u, formula(ff, ops, u, f), and its value on a sample, measure(ff, ops, f),
# each read off that sample's forms ff and operator cache ops, and whether
# it needs the auxiliary field f
_Evolving = namedtuple("_Evolving", "formula measure needs_f", defaults=(False,))
_EVOLUTION = {
    "g": _Evolving(lambda ff, ops, u, f: -2.0 * u.values[..., None, None] * ff.h, lambda ff, ops, f: ff.g),
    "g_inv": _Evolving(
        lambda ff, ops, u, f: 2.0 * u.values[..., None, None] * _MAT_MUL(_MAT_MUL(ff.g_inv, ff.h), ff.g_inv),
        lambda ff, ops, f: ff.g_inv,
    ),
    "dS": _Evolving(lambda ff, ops, u, f: -2.0 * ops.H * u.values * ff.dS_weight, lambda ff, ops, f: ff.dS_weight),
    "2H": _Evolving(lambda ff, ops, u, f: 2.0 * _dH(ops, u), lambda ff, ops, f: 2.0 * ops.H),
    "K": _Evolving(lambda ff, ops, u, f: _dK(ops, u), lambda ff, ops, f: ops.K),
    "laplacian_f": _Evolving(lambda ff, ops, u, f: _laplacian_dot(ops, u, f), lambda ff, ops, f: ops.lap(f), True),
    "h_hess_f": _Evolving(lambda ff, ops, u, f: _h_hess_dot(ops, u, f), lambda ff, ops, f: ops.h_hess(f), True),
}
_EVOLUTION_QUANTITIES = tuple(_EVOLUTION)
_NEEDS_F = tuple(q for q, entry in _EVOLUTION.items() if entry.needs_f)


def _evolution_formulas(s: SurfaceSample, u: ScalarField, f: Optional[ScalarField], quantities):
    """The closed-form deformation derivatives of ``quantities``, yielded in
    order, over one cache of operators."""
    ff, ops = fundamental_forms(s), _operators(s)
    for q in quantities:
        yield _EVOLUTION[q].formula(ff, ops, u, f)


def evolution_check_many(
    s: SurfaceSample,
    u: ScalarField,
    f: Optional[ScalarField] = None,
    quantities: tuple = _EVOLUTION_QUANTITIES,
) -> dict:
    """Evolution-equation checks for several quantities sharing the same
    four deformed samples; returns {quantity: VariationReport}."""
    for q in quantities:
        if q not in _EVOLUTION:
            raise ConfigError(f"unknown evolution quantity '{q}' (have: {', '.join(_EVOLUTION)})")
        if _EVOLUTION[q].needs_f and f is None:
            raise ConfigError(f"quantity '{q}' needs the auxiliary field f")

    def measure(st: SurfaceSample) -> list:
        # one operator cache per sample: one Hess f, from the chart partials f keeps across samples
        ff, ops = fundamental_forms(st), _operators(st)
        return [_EVOLUTION[q].measure(ff, ops, f) for q in quantities]

    h1, d1s, d2s, oracles = _differences(s, u, 1, measure)
    out = {}
    # each quantity's differences are dropped once it is reported, before
    # the formulas of the quantities after it are built
    for q, formula in zip(quantities, _evolution_formulas(s, u, f, quantities)):
        out[q] = _report(formula, oracles.pop(0), d1s.pop(0), d2s.pop(0), h1)
    return out


def evolution_check(
    s: SurfaceSample,
    u: ScalarField,
    f: Optional[ScalarField] = None,
    quantity: str = "2H",
) -> VariationReport:
    """Per-node check of one evolution equation: centered finite difference
    of the quantity along the geodesic normal deformation versus its
    closed-form deformation derivative. Reports sup-norm errors.
    """
    return evolution_check_many(s, u, f, (quantity,))[quantity]
