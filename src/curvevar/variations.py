"""Functional values, first/second variations, Euler-Lagrange residuals,
and finite-difference deformation oracles.

The closed-form variation expressions are assembled from curvature scalars
and intrinsic derivatives of the variation field; the oracles recompute
the same quantities on actually-deformed surfaces and difference them, so
every formula is validated against the definition it encodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .calculus import (
    ScalarField,
    bilinear,
    contract,
    curvature_field,
    grad_inner,
    h_squared,
    hessian,
    integrate,
    laplace_beltrami,
    shape_tensor,
)
from .curvature import Taylor2, curvature_scalars, fundamental_forms
from .densities import EnergyDensity
from .errors import ConfigError, NotCriticalError
from .spaceform import Model
from .surface import SurfaceSample, deform_normal_many


@dataclass
class VariationReport:
    formula_value: float
    oracle_value: float
    abs_error: float
    rel_error: float
    fd_step: float
    convergence_order: float


def _report(formula: float, oracle: float, step: float, order: float) -> VariationReport:
    # relative to the larger of the two values, floored at unit scale so
    # identically-zero variations report their absolute discrepancy
    abs_err = abs(formula - oracle)
    denom = max(abs(formula), abs(oracle), 1.0)
    return VariationReport(
        formula_value=float(formula),
        oracle_value=float(oracle),
        abs_error=float(abs_err),
        rel_error=float(abs_err / denom),
        fd_step=float(step),
        convergence_order=float(order),
    )


def functional_value(s: SurfaceSample, E: EnergyDensity, allow_open: bool = False) -> float:
    """F = integral of E(H, K) dS."""
    cs = curvature_scalars(s)
    (Ev,) = E.guarded(cs.H, cs.K, "eval")
    return integrate(Ev, s, allow_open=allow_open)


def first_variation(s: SurfaceSample, E: EnergyDensity, u: ScalarField, allow_open: bool = False) -> float:
    """Normal-deformation derivative of F in direction u, in closed form:

    integral of (E_H/2 + 2H E_K) Lap u
      + ((2H^2 - K + 2 k0) E_H + 2HK E_K - 2H E) u
      - E_K <h, Hess u> dS.
    """
    cs = curvature_scalars(s)
    H, K, k0 = cs.H, cs.K, s.sf.k0
    Ev, EH, EK = E.guarded(H, K, "eval", "E_H", "E_K")
    lap_u = laplace_beltrami(u, s).values
    h_hess_u = contract(shape_tensor(s), hessian(u, s), s).values
    integrand = (
        (0.5 * EH + 2.0 * H * EK) * lap_u
        + ((2.0 * H**2 - K + 2.0 * k0) * EH + 2.0 * H * K * EK - 2.0 * H * Ev) * u.values
        - EK * h_hess_u
    )
    return integrate(integrand, s, allow_open=allow_open)


def _composed_field(s: SurfaceSample, vals: np.ndarray, derivs: Optional[tuple]) -> ScalarField:
    """Field G(H, K) on the surface from its values. With ``derivs``, the
    values of (G_H, G_K, G_HH, G_HK, G_KK), its jet composes the jets of H
    and K by the order-2 chain rule; without, its partials are
    grid-differentiated."""
    if derivs is None:
        return ScalarField(vals, s)
    H, K = (curvature_field(s, which).taylor() for which in ("H", "K"))
    return ScalarField(vals, s, jet=Taylor2.compose2(H, K, vals, *derivs))


def el_residual(s: SurfaceSample, E: EnergyDensity) -> ScalarField:
    """Pointwise Euler-Lagrange residual of F:

    (Lap/2 + (2H^2 - K + 2 k0)) E_H + (div-tilde-grad + 2HK) E_K - 2H E,

    where the self-adjoint operator acts as 2H Lap w - <h, Hess w>. The
    residual vanishes identically exactly when the surface is critical
    among closed surfaces.
    """
    cs = curvature_scalars(s)
    H, K, k0 = cs.H, cs.K, s.sf.k0
    Ev, EH, EK = E.guarded(H, K, "eval", "E_H", "E_K")
    analytic = E.third is not None
    EH_field = _composed_field(s, EH, E.guarded(H, K, "E_HH", "E_HK", "HHH", "HHK", "HKK") if analytic else None)
    EK_field = _composed_field(s, EK, E.guarded(H, K, "E_HK", "E_KK", "HHK", "HKK", "KKK") if analytic else None)
    lap_EH = laplace_beltrami(EH_field, s).values
    lap_EK = laplace_beltrami(EK_field, s).values
    h_hess_EK = contract(shape_tensor(s), hessian(EK_field, s), s).values
    vals = (
        0.5 * lap_EH
        + (2.0 * H**2 - K + 2.0 * k0) * EH_field.values
        + 2.0 * H * lap_EK
        - h_hess_EK
        + 2.0 * H * K * EK_field.values
        - 2.0 * H * Ev
    )
    return ScalarField(vals, s)


# relative size of the Euler-Lagrange residual below which an immersion
# counts as critical (or, for a constant residual, volume-constrained
# critical)
CRITICALITY_TOL = 1e-5


def _criticality(s: SurfaceSample, E: EnergyDensity):
    """Classify the immersion: returns (kind, multiplier, sizes) with kind
    one of 'critical', 'constrained', 'not_critical'. The multiplier is the
    area-weighted mean EL residual, or zero at a critical immersion;
    ``sizes`` states the measured residual against the bound, for messages.
    This is the one place either is decided."""
    res = el_residual(s, E)
    cs = curvature_scalars(s)
    scale = 1.0 + np.max(np.abs(E.eval(cs.H, cs.K))) * (1.0 + 2.0 * np.max(np.abs(cs.H)))
    bound = CRITICALITY_TOL * scale
    w = fundamental_forms(s).dS_weight
    mean = float(np.sum(res.values * w) / np.sum(w))
    sup = float(np.max(np.abs(res.values)))
    sizes = f"sup |EL residual| = {sup:.3e}, bound {bound:.3e}, mean residual {mean:.6g}"
    if sup <= bound:
        return "critical", 0.0, sizes
    if np.max(np.abs(res.values - mean)) <= bound:
        return "constrained", mean, sizes
    return "not_critical", mean, sizes


def _second_variation_multiplier(s: SurfaceSample, E: EnergyDensity, u: ScalarField, allow_open: bool) -> float:
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
        mean_u = integrate(u, s, allow_open=allow_open) / integrate(np.ones(s.shape), s, allow_open=allow_open)
        bound = 1e-8 * (1.0 + float(np.max(np.abs(u.values))))
        if abs(mean_u) > bound:
            raise NotCriticalError(
                f"surface is only volume-constrained critical ({sizes}); the variation "
                f"field must have zero mean (|mean u| = {abs(mean_u):.3e}, bound {bound:.3e}; "
                "or pass force=True)"
            )
    return lam


def second_variation(
    s: SurfaceSample,
    E: EnergyDensity,
    u: ScalarField,
    allow_open: bool = False,
    force: bool = False,
) -> float:
    """Second normal-deformation derivative of F at a critical immersion.

    At a volume-constrained critical immersion (pointwise EL residual equal
    to a nonzero constant) the expression is valid on variation fields with
    zero mean; this is checked. ``force=True`` evaluates the expression
    regardless, outside its stated validity.
    """
    if not force:
        _second_variation_multiplier(s, E, u, allow_open)
    return _second_variation_integral(s, E, u, allow_open)


def _second_variation_integral(s: SurfaceSample, E: EnergyDensity, u: ScalarField, allow_open: bool) -> float:
    cs = curvature_scalars(s)
    H, K, k0 = cs.H, cs.K, s.sf.k0
    Ev, EH, EK, EHH, EHK, EKK = E.guarded(H, K, "eval", "E_H", "E_K", "E_HH", "E_HK", "E_KK")

    h_t = shape_tensor(s)
    h2_t = h_squared(s)
    hess_u = hessian(u, s)
    lap_u = laplace_beltrami(u, s).values
    h_hess_u = contract(h_t, hess_u, s).values
    h2_hess_u = contract(h2_t, hess_u, s).values
    hess_u_sq = contract(hess_u, hess_u, s).values
    h_gu_gu = bilinear(h_t, u, u, s)
    h2_gu_gu = bilinear(h2_t, u, u, s)
    grad_u_sq = grad_inner(u, u, s)
    Hf = curvature_field(s, "H")
    Kf = curvature_field(s, "K")
    gradH_gu = grad_inner(Hf, u, s)
    gradK_gu = grad_inner(Kf, u, s)
    uv = u.values

    w = 2.0 * H**2 - K + 2.0 * k0
    integrand = (
        (0.25 * EHH + 2.0 * H * EHK + 4.0 * H**2 * EKK + EK) * lap_u**2
        + EKK * h_hess_u**2
        - (EHK + 4.0 * H * EKK) * lap_u * h_hess_u
        + EK * (uv * gradK_gu - 3.0 * uv * h2_hess_u - 2.0 * h2_gu_gu - hess_u_sq)
        + (
            w * EHH
            + 2.0 * H * (4.0 * H**2 - K + 4.0 * k0) * EHK
            + 8.0 * H**2 * K * EKK
            - 2.0 * H * EH
            + (3.0 * k0 - K) * EK
            - Ev
        )
        * uv
        * lap_u
        + (
            w**2 * EHH
            + 4.0 * H * K * w * EHK
            + 4.0 * H**2 * K**2 * EKK
            - 2.0 * K * (K - 2.0 * k0) * EK
            - 2.0 * H * K * EH
            + 2.0 * (K - 2.0 * k0) * Ev
        )
        * uv**2
        + (2.0 * EH + 6.0 * H * EK - 2.0 * w * EHK - 4.0 * H * K * EKK) * uv * h_hess_u
        + (EH + 4.0 * H * EK) * h_gu_gu
        + EH * uv * gradH_gu
        - (2.0 * (K - k0) * EK + H * EH) * grad_u_sq
    )
    return integrate(integrand, s, allow_open=allow_open)


def volume_functional(s: SurfaceSample) -> float:
    """Signed flux volume (1/3) integral of <r, N> dS (Euclidean model).

    Its deformation derivatives are ``volume_variations``, in the
    orientation carried by the sample, whatever that orientation is.
    """
    if s.sf.model is not Model.EUCLIDEAN:
        raise ConfigError("the flux volume functional is defined in the Euclidean model")
    flux = s.sf.flat_inner(s.positions, fundamental_forms(s).N)
    return integrate(flux, s, allow_open=True) / 3.0


def volume_variations(s: SurfaceSample, u: ScalarField) -> tuple[float, float]:
    """(first, second) deformation derivatives of the enclosed volume:
    integral of u dS and integral of -2 H u^2 dS. Like ``volume_functional``
    they integrate over open patches too, where they are meaningful for
    compactly supported u."""
    cs = curvature_scalars(s)
    return integrate(u, s, allow_open=True), integrate(-2.0 * cs.H * u.values**2, s, allow_open=True)


def _default_step(s: SurfaceSample, u: ScalarField, order: int = 1) -> float:
    # step relative to the smallest curvature radius and the field size;
    # the second difference divides by h^2, so it gets a smaller base step
    # to keep truncation below the target tolerances
    cs = curvature_scalars(s)
    kappa = max(np.max(np.abs(cs.kappa1)), np.max(np.abs(cs.kappa2)), 1e-12)
    umax = max(float(np.max(np.abs(u.values))), 1e-12)
    return (1e-2 if order == 1 else 5e-3) * (1.0 / (kappa * umax))


def _differences(s: SurfaceSample, u: ScalarField, order: int, h: Optional[float], measure):
    """Centered differences of the values ``measure(sample)`` returns (a
    list of numbers or arrays) along the geodesic normal deformation of u.

    Deforms once to t = +-h1, +-h2 with h2 = h1/2 (h1 = h, or the default
    step), measures each deformed sample once and drops it, and for order 2
    measures s itself as the centre. Returns h1, the differences at h1 and
    at h2, and their Richardson value.
    """
    h1 = _default_step(s, u, order) if h is None else float(h)
    h2 = 0.5 * h1
    deformed = deform_normal_many(s, u, (h1, -h1, h2, -h2))
    m = {t: measure(deformed.pop(t)) for t in (h1, -h1, h2, -h2)}
    centre = measure(s) if order == 2 else None

    def difference(t):
        if order == 1:
            return [(a - b) / (2.0 * t) for a, b in zip(m[t], m[-t])]
        return [(a - 2.0 * c + b) / t**2 for a, c, b in zip(m[t], centre, m[-t])]

    d1, d2 = difference(h1), difference(h2)
    # h1 / h2 = 2 exactly, so the h^2 error terms cancel in (4 d2 - d1) / 3
    best = [(4.0 * b - a) / 3.0 for a, b in zip(d1, d2)]
    return h1, d1, d2, best


def _observed_order(e1: float, e2: float, floor: float) -> float:
    """Convergence order from the errors at h1 and h1/2; 2 when either is
    at the round-off floor."""
    return 2.0 if (e1 <= floor or e2 <= floor) else math.log(e1 / e2) / math.log(2.0)


def fd_variation_oracle_many(
    s: SurfaceSample,
    Es: Sequence[EnergyDensity],
    u: ScalarField,
    order: int = 1,
    h: Optional[float] = None,
    allow_open: bool = False,
    force: bool = False,
) -> list[VariationReport]:
    """Difference quotients of F for several densities over one set of
    deformed samples, each compared against the closed-form variation of
    the same order; returns one VariationReport per density.

    For order 2 the differenced functional is the augmented F - lambda * V,
    with each density's multiplier lambda from the classification that
    ``second_variation`` checks: zero at a critical immersion, the
    (area-weighted) mean Euler-Lagrange residual at a constrained-critical
    one, where the field must have zero mean unless ``force`` is set. The
    formula side is augmented identically: lambda times the second
    variation of the volume (``volume_variations``) is subtracted, so both
    columns of the report describe the same augmented functional. (Along a
    symmetry direction such as a translation of the sphere the augmented
    value is zero while the plain closed-form expression is not; both are
    available, their difference being exactly lambda times the volume
    term.)
    """
    if order not in (1, 2):
        raise ConfigError("oracle order must be 1 or 2")
    lams, formulas = [], []
    for E in Es:
        if order == 1:
            lam, formula = 0.0, first_variation(s, E, u, allow_open=allow_open)
        else:
            lam = _criticality(s, E)[1] if force else _second_variation_multiplier(s, E, u, allow_open)
            formula = _second_variation_integral(s, E, u, allow_open)
            if lam != 0.0:
                formula -= lam * volume_variations(s, u)[1]
        lams.append(lam)
        formulas.append(formula)

    def measure(st: SurfaceSample) -> list:
        vol = volume_functional(st) if any(lams) else 0.0
        return [functional_value(st, E, allow_open=True) - lam * vol for E, lam in zip(Es, lams)]

    h1, d1, d2, oracles = _differences(s, u, order, h, measure)
    reports = []
    for formula, a, b, oracle in zip(formulas, d1, d2, oracles):
        conv = _observed_order(abs(a - formula), abs(b - formula), 1e-11 * (1.0 + abs(formula)))
        reports.append(_report(formula, oracle, h1, conv))
    return reports


def fd_variation_oracle(
    s: SurfaceSample,
    E: EnergyDensity,
    u: ScalarField,
    order: int = 1,
    h: Optional[float] = None,
    allow_open: bool = False,
    force: bool = False,
) -> VariationReport:
    """Difference quotient of F along the geodesic normal deformation of u,
    compared against the closed-form variation of the same order: the
    one-density case of ``fd_variation_oracle_many``."""
    return fd_variation_oracle_many(s, (E,), u, order, h, allow_open, force)[0]


_EVOLUTION_QUANTITIES = ("g", "g_inv", "dS", "2H", "K", "laplacian_f", "h_hess_f")
_NEEDS_F = ("laplacian_f", "h_hess_f")  # the quantities that need the auxiliary field f


def _evolution_formula(s: SurfaceSample, u: ScalarField, f: Optional[ScalarField], quantity: str):
    ff = fundamental_forms(s)
    cs = curvature_scalars(s)
    H, K, k0 = cs.H, cs.K, s.sf.k0
    uv = u.values
    if quantity == "g":
        return -2.0 * uv[..., None, None] * ff.h
    if quantity == "g_inv":
        h_up = ff.g_inv @ ff.h @ ff.g_inv
        return 2.0 * uv[..., None, None] * h_up
    if quantity == "dS":
        return -2.0 * H * uv * ff.dS_weight
    lap_u = laplace_beltrami(u, s).values
    if quantity == "2H":
        return lap_u + 2.0 * uv * (2.0 * H**2 - K + 2.0 * k0)
    if quantity == "K":
        h_hess_u = contract(shape_tensor(s), hessian(u, s), s).values
        return 2.0 * H * lap_u - h_hess_u + 2.0 * H * K * uv
    h_t = shape_tensor(s)
    h2_t = h_squared(s)
    hess_f = hessian(f, s)
    Hf = curvature_field(s, "H")
    Kf = curvature_field(s, "K")
    if quantity == "laplacian_f":
        return (
            2.0 * uv * contract(h_t, hess_f, s).values
            + 2.0 * uv * grad_inner(Hf, f, s)
            + 2.0 * bilinear(h_t, u, f, s)
            - 2.0 * H * grad_inner(u, f, s)
        )
    # h_hess_f, the one quantity left (evolution_check_many admits no other)
    lap_f = laplace_beltrami(f, s).values
    # <grad |h|^2, grad f> via |h|^2 = 4H^2 - 2(K - k0)
    grad_h2_f = 8.0 * H * grad_inner(Hf, f, s) - 2.0 * grad_inner(Kf, f, s)
    return (
        contract(hessian(u, s), hess_f, s).values
        + 3.0 * uv * contract(h2_t, hess_f, s).values
        + uv * k0 * lap_f
        + 2.0 * bilinear(h2_t, u, f, s)
        + 0.5 * uv * grad_h2_f
        - cs.h_norm_sq * grad_inner(u, f, s)
    )


def _evolution_measure(st: SurfaceSample, f: Optional[ScalarField], quantity: str):
    ff = fundamental_forms(st)
    cs = curvature_scalars(st)
    if quantity == "g":
        return ff.g
    if quantity == "g_inv":
        return ff.g_inv
    if quantity == "dS":
        return ff.dS_weight
    if quantity == "2H":
        return 2.0 * cs.H
    if quantity == "K":
        return cs.K
    ft = f.with_sample(st)
    if quantity == "laplacian_f":
        return laplace_beltrami(ft, st).values
    return contract(shape_tensor(st), hessian(ft, st), st).values  # h_hess_f, the one left


def evolution_check_many(
    s: SurfaceSample,
    u: ScalarField,
    f: Optional[ScalarField] = None,
    quantities: tuple = _EVOLUTION_QUANTITIES,
    h: Optional[float] = None,
) -> dict:
    """Evolution-equation checks for several quantities sharing the same
    four deformed samples; returns {quantity: VariationReport}."""
    for q in quantities:
        if q in _NEEDS_F and f is None:
            raise ConfigError(f"quantity '{q}' needs the auxiliary field f")
        if q not in _EVOLUTION_QUANTITIES:
            raise ConfigError(f"unknown evolution quantity '{q}' (have: {', '.join(_EVOLUTION_QUANTITIES)})")
    h1, d1s, d2s, oracles = _differences(s, u, 1, h, lambda st: [_evolution_measure(st, f, q) for q in quantities])
    out = {}
    for q, d1, d2, oracle in zip(quantities, d1s, d2s, oracles):
        formula = _evolution_formula(s, u, f, q)
        scale = float(np.max(np.abs(formula))) + float(np.max(np.abs(oracle))) + 1e-12
        e1 = float(np.max(np.abs(d1 - formula)))
        e2 = float(np.max(np.abs(d2 - formula)))
        err = float(np.max(np.abs(oracle - formula)))
        out[q] = VariationReport(
            formula_value=float(np.max(np.abs(formula))),
            oracle_value=float(np.max(np.abs(oracle))),
            abs_error=err,
            rel_error=err / scale,
            fd_step=h1,
            convergence_order=_observed_order(e1, e2, 1e-10 * scale),
        )
    return out


def evolution_check(
    s: SurfaceSample,
    u: ScalarField,
    f: Optional[ScalarField] = None,
    quantity: str = "2H",
    h: Optional[float] = None,
) -> VariationReport:
    """Per-node check of one evolution equation: centered finite difference
    of the quantity along the geodesic normal deformation versus its
    closed-form deformation derivative. Reports sup-norm errors.
    """
    return evolution_check_many(s, u, f, (quantity,), h)[quantity]
