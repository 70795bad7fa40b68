"""Reference variation formulas for the tests: the first variation, the
Euler-Lagrange residual and the second-variation integrand expanded term
by term in the curvature scalars and the field's operators, and the
specialised H^p Euler-Lagrange residual.

``curvevar.variations`` composes the same quantities from H'[f], K'[f]
and the derivatives of Lap and <h, Hess> along the deformation; the tests
compare the two.
"""

from curvevar.calculus import (
    ScalarField,
    bilinear,
    contract,
    curvature_field,
    grad_inner,
    h_squared,
    hessian,
    integrate,
    laplace_beltrami,
    metric_trace,
    shape_tensor,
)
from curvevar.curvature import curvature_scalars
from curvevar.densities import ORDERS
from curvevar.variations import _composed_field


def first_variation(s, E, u):
    """integral of (E_H/2 + 2H E_K) Lap u + ((2H^2 - K + 2 k0) E_H + 2HK E_K
    - 2H E) u - E_K <h, Hess u> dS."""
    cs = curvature_scalars(s)
    H, K, k0 = cs.H, cs.K, s.sf.k0
    Ev, EH, EK = E.guarded(H, K, (0, 0), (1, 0), (0, 1))
    hess_u = hessian(u, s)
    lap_u = metric_trace(hess_u, s).values
    h_hess_u = contract(shape_tensor(s), hess_u, s).values
    integrand = (
        (0.5 * EH + 2.0 * H * EK) * lap_u
        + ((2.0 * H**2 - K + 2.0 * k0) * EH + 2.0 * H * K * EK - 2.0 * H * Ev) * u.values
        - EK * h_hess_u
    )
    return integrate(integrand, s)


def el_residual(s, E):
    """(Lap/2 + (2H^2 - K + 2 k0)) E_H + (2H Lap - <h, Hess> + 2HK) E_K - 2H E."""
    cs = curvature_scalars(s)
    H, K, k0 = cs.H, cs.K, s.sf.k0
    table = dict(zip(ORDERS, E.guarded(H, K, *ORDERS)))
    Ev = table[(0, 0)]
    EH_field = _composed_field(s, table, (1, 0))
    EK_field = _composed_field(s, table, (0, 1))
    hess_EK = hessian(EK_field, s)
    lap_EH = laplace_beltrami(EH_field, s).values
    lap_EK = metric_trace(hess_EK, s).values
    h_hess_EK = contract(shape_tensor(s), hess_EK, s).values
    vals = (
        0.5 * lap_EH
        + (2.0 * H**2 - K + 2.0 * k0) * EH_field.values
        + 2.0 * H * lap_EK
        - h_hess_EK
        + 2.0 * H * K * EK_field.values
        - 2.0 * H * Ev
    )
    return ScalarField(vals, s)


def pwillmore_el_residual(s, p):
    """(p/2) Lap(H^{p-1}) + p (2H^2 - K + 2 k0) H^{p-1} - 2 H^{p+1}, the jet
    of H^{p-1} composing that of H; for H > 0."""
    cs = curvature_scalars(s)
    H, K, k0, q = cs.H, cs.K, s.sf.k0, p - 1
    jet = curvature_field(s, "H").taylor().compose(H**q, q * H ** (q - 1), q * (q - 1) * H ** (q - 2))
    lap_w = laplace_beltrami(ScalarField(jet.value, s, jet=jet), s).values
    return ScalarField(0.5 * p * lap_w + p * (2.0 * H**2 - K + 2.0 * k0) * jet.value - 2.0 * H ** (p + 1), s)


def second_variation_integral(s, E, u):
    """The second-variation integral, the second t-derivative of E(H, K) dS
    at each fixed chart node, with every product of a surface coefficient
    and a field feature written out."""
    cs = curvature_scalars(s)
    H, K, k0 = cs.H, cs.K, s.sf.k0
    Ev, EH, EK, EHH, EHK, EKK = E.guarded(H, K, (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    h_t = shape_tensor(s)
    h2_t = h_squared(s)
    hess_u = hessian(u, s)
    lap_u = metric_trace(hess_u, s).values
    h_hess_u = contract(h_t, hess_u, s).values
    h2_hess_u = contract(h2_t, hess_u, s).values
    hess_u_sq = contract(hess_u, hess_u, s).values
    h_gu_gu = bilinear(h_t, u, u, s)
    h2_gu_gu = bilinear(h2_t, u, u, s)
    grad_u_sq = grad_inner(u, u, s)
    gradH_gu = grad_inner(curvature_field(s, "H"), u, s)
    gradK_gu = grad_inner(curvature_field(s, "K"), u, s)
    uv = u.values

    w = 2.0 * H**2 - K + 2.0 * k0
    integrand = (
        (0.25 * EHH + 2.0 * H * EHK + 4.0 * H**2 * EKK + EK) * lap_u**2
        + EKK * h_hess_u**2
        - (EHK + 4.0 * H * EKK) * lap_u * h_hess_u
        + EK * (2.0 * uv * gradK_gu - 3.0 * uv * h2_hess_u - 2.0 * h2_gu_gu - hess_u_sq)
        + (
            w * EHH
            + 2.0 * H * (4.0 * H**2 - K + 4.0 * k0) * EHK
            + 8.0 * H**2 * K * EKK
            - 2.0 * H * EH
            + (3.0 * k0 - K) * EK
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
        + 2.0 * EH * uv * gradH_gu
        + (Ev - 2.0 * (K - k0) * EK - H * EH) * grad_u_sq
    )
    return integrate(integrand, s)
