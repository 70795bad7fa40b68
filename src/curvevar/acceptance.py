"""Self-contained verification suite: every shipped guarantee as a check.

Each criterion returns a dict with a pass flag and the measured numbers;
the CLI ``verify-all`` command and the test suite both run these, so the
command line and pytest always agree on what "passing" means.
"""

from __future__ import annotations

import math

import numpy as np

from .calculus import AmbientPolyField, ScalarField, integrate, laplace_beltrami, random_smooth_field
from .catalog import CATALOG_NAMES, default_domain, sample_builtin
from .curvature import codazzi_residual, curvature_scalars, intrinsic_gauss_curvature
from .densities import area_density, bending, builtin_density, helfrich, ksquared, pwillmore, willmore
from .pwillmore import (
    PWillmoreSetting,
    coercivity_bound,
    harmonic_field,
    poincare_check,
    random_span_field,
    sphere_index_form,
    stability_report,
)
from .spaceform import Model, SpaceForm
from .spectrum import sphere_spectrum
from .surface import sample_callable
from .variations import (
    el_residual,
    evolution_check_many,
    fd_variation_oracle,
    fd_variation_oracle_many,
    first_variation,
    functional_value,
    oracle_passes,
)


def _plain(x):
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def _crit(cid, title, passed, details):
    return {"id": cid, "title": title, "passed": bool(passed), "details": _plain(details)}


def criterion_1():
    val = functional_value(sample_builtin("sphere", {"r": 1.0}), willmore())
    rel = abs(val - 4.0 * math.pi) / (4.0 * math.pi)
    return _crit(1, "Willmore energy of the unit sphere is 4*pi", rel <= 1e-8, {"value": val, "rel_error": rel})


def criterion_2():
    worst = 0.0
    rows = {}
    for p in (1, 2, 3, 4):
        for r in (0.5, 1.0, 2.0):
            val = functional_value(sample_builtin("sphere", {"r": r}), pwillmore(p))
            expected = 4.0 * math.pi * r ** (2 - p)
            rel = abs(val - expected) / expected
            worst = max(worst, rel)
            rows[f"p={p},r={r}"] = rel
    return _crit(2, "H^p energy of spheres is 4*pi*r^(2-p)", worst <= 1e-8, {"worst_rel": worst, **rows})


def _first_order_densities(k0: float = 0.0):
    return [willmore(k0), bending(k0), helfrich(1.0, 0.3, 0.5), pwillmore(1), pwillmore(3), ksquared()]


def criterion_3():
    """Order-1 oracles of the six densities on the sphere, the torus, the
    catenoid, the S^3 and H^3 torus images and the two Hopf tori (willmore
    and bending with each curved surface's k0), at seeds 0-4."""
    cases = (
        lambda: sample_builtin("sphere", {"r": 1.0}),
        lambda: sample_builtin("torus", {"R": 2.0, "a": 1.0}),
        lambda: sample_builtin("catenoid", {}),
        lambda: _torus_image(SpaceForm.sphere(1.0)),
        lambda: _torus_image(SpaceForm.hyperbolic(1.0)),
        *(lambda c=c: _hopf_torus(*c) for c in HOPF_CURVES),
    )
    worst_rel, worst_order = 0.0, float("inf")
    for make in cases:
        s = make()
        densities = _first_order_densities(s.sf.k0)
        for seed in range(5):
            u = random_smooth_field(s, seed, compact_v=not s.domain.closed)
            for rep in fd_variation_oracle_many(s, densities, u, order=1, allow_open=True):
                worst_rel = max(worst_rel, rep.rel_error)
                worst_order = min(worst_order, rep.convergence_order)
    ok = oracle_passes("first_variation", worst_rel, worst_order)
    return _crit(
        3,
        "first variation matches deformation differences for all densities",
        ok,
        {"worst_rel": worst_rel, "worst_order": worst_order},
    )


def criterion_4():
    worst = 0.0
    for p in (1, 2, 3, 4):
        for r in (0.5, 1.0, 2.0):
            s = sample_builtin("sphere", {"r": r})
            val = first_variation(s, pwillmore(p), ScalarField.constant(1.0, s))
            expected = 4.0 * math.pi * (p - 2.0) * r ** (1 - p)
            rel = abs(val - expected) / max(abs(expected), 1.0)
            worst = max(worst, rel)
    return _crit(4, "uniform inflation of spheres changes H^p energy at rate 4*pi*(p-2)*r^(1-p)", worst <= 1e-7, {"worst_rel": worst})


def _torus_image_map(sf: SpaceForm):
    """Position map, on the torus chart, of the R/a = 2 torus scaled by
    0.25/(R + a) and shifted by (0.1, -0.05, 0.12) into the unit ball, then
    carried into S^3 by x -> (2x, |x|^2 - 1)/(|x|^2 + 1) or into H^3 by
    x -> (2x, 1 + |x|^2)/(1 - |x|^2), both of radius 1."""
    R, a = 2.0, 1.0

    def f(U, V):
        r = R + a * np.cos(V)
        x = 0.25 / (R + a) * np.stack([r * np.cos(U), r * np.sin(U), a * np.sin(V)], axis=-1) + [0.1, -0.05, 0.12]
        q = np.sum(x * x, axis=-1, keepdims=True)
        if sf.model is Model.SPHERE:
            return np.concatenate([2.0 * x, q - 1.0], axis=-1) / (q + 1.0)
        return np.concatenate([2.0 * x, 1.0 + q], axis=-1) / (1.0 - q)

    return f


def _torus_image(sf: SpaceForm):
    """``_torus_image_map`` sampled at 128 x 64 on the torus chart. Its H
    is not constant: it spans [-0.03, 4.22] in S^3 and [-4.00, 0.20] in H^3."""
    return sample_callable(_torus_image_map(sf), default_domain("torus", None, 128, 64), sf=sf, name="torus image")


# (t0, eps, m) of the curves on S^2(1/2) whose Hopf tori the criteria sample
HOPF_CURVES = ((math.pi / 2, 0.3, 3), (1.2, 0.4, 2))


def _hopf_torus(t0: float, eps: float, m: int):
    """The Hopf torus in S^3(1) over the closed curve on S^2(1/2) of polar
    angle t = t0 + eps cos(ms) and azimuth s, sampled at 128 x 64 on the
    doubly periodic chart (u = s, v = phi) from its lift T(s, phi) =
    (cos(t/2) cos(s + phi), cos(t/2) sin(s + phi), sin(t/2) cos phi,
    sin(t/2) sin phi). It is flat, with H = -kappa(s)/2 over the curve's
    geodesic curvature kappa, and its chart is not orthogonal (Pinkall,
    Invent. Math. 81 (1985) 379-386)."""

    def position_map(S, P):
        t = t0 + eps * np.cos(m * S)
        c, s = np.cos(t / 2), np.sin(t / 2)
        return np.stack([c * np.cos(S + P), c * np.sin(S + P), s * np.cos(P), s * np.sin(P)], axis=-1)

    dom = default_domain("torus", None, 128, 64)
    return sample_callable(position_map, dom, sf=SpaceForm.sphere(1.0), name="hopf_torus")


def criterion_5():
    """The seven evolution equations on the E^3 torus, the S^3 geodesic
    sphere, the S^3 and H^3 images of a torus and the two Hopf tori, whose
    H and K vary."""
    worst_rel, worst_order = 0.0, float("inf")
    rows = {}
    cases = (
        ("torus", lambda: sample_builtin("torus", {"R": 2.0, "a": 1.0})),
        ("geodesic_sphere_S3", lambda: sample_builtin("geodesic_sphere_S3", {"a": math.pi / 4})),
        ("torus_image_S3", lambda: _torus_image(SpaceForm.sphere(1.0))),
        ("torus_image_H3", lambda: _torus_image(SpaceForm.hyperbolic(1.0))),
        *(("hopf_torus_S3(t0=%.4g,eps=%g,m=%d)" % c, lambda c=c: _hopf_torus(*c)) for c in HOPF_CURVES),
    )
    for name, make in cases:
        s = make()
        u = random_smooth_field(s, 101)
        f = random_smooth_field(s, 202)
        reports = evolution_check_many(s, u, f=f)
        for q, rep in reports.items():
            worst_rel = max(worst_rel, rep.rel_error)
            worst_order = min(worst_order, rep.convergence_order)
            rows[f"{name}/{q}"] = [rep.rel_error, rep.convergence_order]
    ok = oracle_passes("evolution", worst_rel, worst_order)
    return _crit(5, "all seven evolution equations verified on torus, S^3 geodesic sphere, S^3, H^3 torus images and S^3 Hopf tori", ok, {"worst_rel": worst_rel, "worst_order": worst_order, **rows})


def criterion_6():
    s1 = sample_builtin("sphere", {"r": 1.0})
    y2 = harmonic_field(s1, 2, 0)
    ct = sample_builtin("clifford_torus_S3")
    # cos u cos v = 2 x0 x2 on the Clifford torus (x0 = cos u / sqrt 2, x2 = cos v / sqrt 2)
    pair = np.zeros((4, 4))
    pair[0, 2] = pair[2, 0] = 1.0
    u_ct = AmbientPolyField(ct, 0.0, np.zeros(4), pair)
    cat = sample_builtin("catenoid")
    u_cat = random_smooth_field(cat, 7, compact_v=True)
    u_open = random_smooth_field(cat, 7)  # not compactly supported: lambda = 0 rows only
    pairs = [
        ("sphere/willmore", s1, willmore(), y2),
        ("clifford/willmore_k0_1", ct, willmore(1.0), u_ct),
        ("catenoid/p3", cat, pwillmore(3), u_cat),
        ("sphere/p3_multiplier", s1, pwillmore(3), y2),
        ("catenoid/bending_open", cat, bending(), u_open),
        ("catenoid/K_open", cat, helfrich(0.0, 0.0, 1.0), u_open),
        ("catenoid/area_open", cat, area_density(), u_open),
    ]
    worst = 0.0
    rows = {}
    for name, s, E, u in pairs:
        rep = fd_variation_oracle(s, E, u, order=2, allow_open=True)
        worst = max(worst, rep.rel_error)
        rows[name] = [rep.formula_value, rep.oracle_value, rep.rel_error]
    ok = oracle_passes("second_variation", worst)
    return _crit(6, "second variation matches augmented second differences at critical immersions", ok, {"worst_rel": worst, **rows})


def criterion_7():
    s = sample_builtin("sphere", {"r": 1.0})
    u = harmonic_field(s, 1, 0) * math.sqrt(4.0 * math.pi / 3.0)  # cos v
    v3 = sphere_index_form(PWillmoreSetting(3, 1.0), u)
    expected = -8.0 * math.pi / 3.0
    rel3 = abs(v3 - expected) / abs(expected)
    v2 = sphere_index_form(PWillmoreSetting(2, 1.0), u)
    ok = rel3 <= 1e-6 and abs(v2) <= 1e-8
    return _crit(7, "sphere index form on the translation mode: -8*pi/3 at p=3, zero at p=2", ok, {"p3_value": v3, "p3_rel": rel3, "p2_value": v2})


def criterion_8():
    s = sample_builtin("sphere", {"r": 1.0})
    rows = {}
    ok = True
    for p in (2.5, 3.0, 4.0, 5.0):
        rep = stability_report(PWillmoreSetting(p, 1.0), l_max=6, sample=s)
        l1 = rep.index_by_l[1][0]
        rest = [v for l in range(2, 7) for v in rep.index_by_l[l]]
        good = l1 < 0 and all(v > 0 for v in rest)
        ok = ok and good
        rows[f"p={p}"] = [l1, min(rest)]
    for p in (1.0, 2.0):
        rep = stability_report(PWillmoreSetting(p, 1.0), l_max=6, sample=s)
        vals = [v for l in range(1, 7) for v in rep.index_by_l[l]]
        good = all(v >= -1e-9 for v in vals)
        ok = ok and good
        rows[f"p={p}"] = [min(vals)]
    return _crit(8, "sphere instability appears exactly for p > 2 and only in the first eigenspace", ok, rows)


def criterion_9():
    worst_margin = float("inf")
    for r in (0.5, 1.0, 2.0):
        s = sample_builtin("sphere", {"r": r})
        norms = {}
        for p in (1, 2, 3, 4):
            setting = PWillmoreSetting(p, r)
            bound = coercivity_bound(p, r)
            for seed in range(20):
                u = norms.get(seed)
                if u is None:
                    u = norms[seed] = random_span_field(s, seed)
                quotient = r**p * sphere_index_form(setting, u) / integrate(u.values**2, s)
                worst_margin = min(worst_margin, quotient - bound)
    return _crit(9, "index form coercive above (2p^2-3p+4)/(2r^2) on the l>=2 span", worst_margin >= -1e-6, {"worst_margin": worst_margin})


def criterion_10():
    s = sample_builtin("sphere", {"r": 1.0})
    rep2 = poincare_check(harmonic_field(s, 2, 0) * math.sqrt(4.0 * math.pi / 5.0))  # (3 cos^2 v - 1) / 2
    target = 4.0 * math.pi / 5.0
    eq_ok = all(abs(v - target) / target <= 1e-6 for v in (rep2.norm_sq, rep2.grad_quantity, rep2.lap_quantity))
    rep3 = poincare_check(harmonic_field(s, 3, 0))
    ratio_ok = abs(rep3.ratios[0] - 2.0) <= 1e-6 * 2.0 and abs(rep3.ratios[1] - 4.0) <= 1e-6 * 4.0
    ok = eq_ok and rep2.equality and ratio_ok and rep3.passes
    return _crit(10, "Poincare chain: equality at the l=2 harmonic, ratios 2 and 4 at l=3", ok, {"l2_values": [rep2.norm_sq, rep2.grad_quantity, rep2.lap_quantity], "l3_ratios": list(rep3.ratios)})


def criterion_11():
    s = sample_builtin("sphere", {"r": 1.0}, domain=default_domain("sphere", nu=256, nv=128))
    worst = 0.0
    mult_ok = True
    for k in range(1, 7):
        lam, nk = sphere_spectrum(k, 1.0)
        mult_ok = mult_ok and nk == math.comb(k + 2, 2)
        for m in (0, k):
            y = ScalarField(harmonic_field(s, k, m).values, s)
            res = laplace_beltrami(y, s).values + lam * y.values
            worst = max(worst, float(np.max(np.abs(res))))
    return _crit(11, "discrete Laplacian reproduces the sphere spectrum through k=6", worst <= 1e-6 and mult_ok, {"worst_residual": worst})


def criterion_12():
    ct = sample_builtin("clifford_torus_S3")
    cs = curvature_scalars(ct)
    h_sup = float(np.max(np.abs(cs.H)))
    res = float(np.max(np.abs(el_residual(ct, willmore(1.0)).values)))
    energy = functional_value(ct, willmore(1.0))
    e_rel = abs(energy - 2.0 * math.pi**2) / (2.0 * math.pi**2)
    gap = float(np.max(np.abs(cs.K_E - (cs.K - ct.sf.k0))))
    gs = sample_builtin("geodesic_sphere_S3", {"a": math.pi / 4})
    cg = curvature_scalars(gs)
    gap = max(gap, float(np.max(np.abs(cg.K_E - (cg.K - gs.sf.k0)))))
    ok = h_sup <= 1e-8 and res <= 1e-6 and e_rel <= 1e-7 and gap <= 1e-9
    return _crit(12, "Clifford torus: minimal, Willmore-critical, energy 2*pi^2", ok, {"H_sup": h_sup, "el_sup": res, "energy_rel": e_rel, "KE_identity_gap": gap})


def criterion_13():
    worst_cod, worst_egr = 0.0, 0.0
    images = [_torus_image(SpaceForm.sphere(1.0)), _torus_image(SpaceForm.hyperbolic(1.0))]
    images += [_hopf_torus(*c) for c in HOPF_CURVES]
    for s in [sample_builtin(name) for name in CATALOG_NAMES] + images:
        worst_cod = max(worst_cod, float(np.max(codazzi_residual(s))))
        cs = curvature_scalars(s)
        k_int = intrinsic_gauss_curvature(s)
        worst_egr = max(worst_egr, float(np.max(np.abs(k_int - cs.K) / np.maximum(1.0, np.abs(cs.K)))))
    ok = worst_cod <= 1e-6 and worst_egr <= 1e-6
    return _crit(13, "Codazzi and Theorema Egregium hold on every catalog surface, the S^3, H^3 torus images and the S^3 Hopf tori", ok, {"worst_codazzi": worst_cod, "worst_egregium": worst_egr})


def criterion_14():
    tol = 1e-7 * 4.0 * math.pi
    s = sample_builtin("sphere", {"r": 1.3})
    t = sample_builtin("torus", {"R": 2.0, "a": 1.0})
    gb_s = integrate(curvature_scalars(s).K, s)
    gb_t = integrate(curvature_scalars(t).K, t)
    gap_s = functional_value(s, bending()) - functional_value(s, willmore())
    gap_t = functional_value(t, bending()) - functional_value(t, willmore())
    ok = (
        abs(gb_s - 4.0 * math.pi) <= tol
        and abs(gb_t) <= tol
        and abs(gap_s + 4.0 * math.pi) <= 1e-6
        and abs(gap_t) <= 1e-6
    )
    return _crit(14, "Gauss-Bonnet totals and the bending/Willmore gap", ok, {"gb_sphere": gb_s, "gb_torus": gb_t, "gap_sphere": gap_s, "gap_torus": gap_t})


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
    13: criterion_13,
    14: criterion_14,
}


def run_criterion(cid: int) -> dict:
    return CRITERIA[cid]()


def run_all(ids=None) -> list:
    ids = sorted(CRITERIA) if ids is None else sorted(ids)
    return [run_criterion(i) for i in ids]
