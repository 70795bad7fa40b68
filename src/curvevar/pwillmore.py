"""Stability analysis of round spheres for the H^p energies.

Contains the specialized Euler-Lagrange residual, the sphere index form,
real orthonormal spherical harmonics with their projections, the Poincare
inequality check, and the stability report over Laplacian eigenspaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from .calculus import ScalarField, curvature_field, grad_inner, integrate, laplace_beltrami
from .curvature import Taylor2, curvature_scalars
from .errors import ConfigError, GuardViolation
from .surface import SurfaceSample


@dataclass(frozen=True)
class PWillmoreSetting:
    """Exponent and sphere radius for the H^p stability suite (k0 = 0)."""

    p: float
    r: float = 1.0

    def __post_init__(self):
        if self.p < 1:
            raise ConfigError("exponent p must be >= 1")
        if self.r <= 0:
            raise ConfigError("sphere radius must be positive")


def sphere_spectrum(k: int, r: float = 1.0) -> Tuple[float, int]:
    """Eigenvalue and multiplicity of the k-th Laplacian eigenvalue on
    S^2(r): lambda_k = k(k+1)/r^2 with multiplicity C(k+2, 2)."""
    if k < 0:
        raise ConfigError("spectrum index must be >= 0")
    return k * (k + 1) / float(r) ** 2, math.comb(k + 2, 2)


# -- spherical harmonics -----------------------------------------------------


def _legendre(l: int, am: int, x, s):
    """Associated Legendre function P^am_l at x = cos v, s = sin v (with the
    Condon-Shortley sign): P^am_am = (-1)^am (2am-1)!! s^am, raised to
    degree l by the three-term recurrence. ``x`` and ``s`` may be numpy
    arrays or Taylor2 jets."""
    P = x * 0.0 + (-1.0) ** am * math.prod(range(2 * am - 1, 0, -2))
    for _ in range(am):
        P = P * s
    if l > am:
        P_prev, P = P, (2 * am + 1) * x * P
        for ll in range(am + 2, l + 1):
            P_prev, P = P, ((2 * ll - 1) * x * P - (ll + am - 1) * P_prev) * (1.0 / (ll - am))
    return P


@dataclass(frozen=True)
class _Harmonic:
    """Real orthonormal spherical harmonic Y_{l,m} on the unit sphere in the
    chart (u = azimuth, v = polar angle): norm * P^|m|_l(cos v) times 1,
    sqrt(2) cos(m u) (m > 0) or sqrt(2) sin(|m| u) (m < 0)."""

    l: int
    m: int
    norm: float

    def jet(self, U, V) -> Taylor2:
        """Order-2 Taylor jet at the chart points (U, V)."""
        am = abs(self.m)
        zero = np.zeros(np.shape(U))
        c, s = np.cos(V), np.sin(V)
        x = Taylor2((c, zero, -s, zero, zero, -c))
        sv = Taylor2((s, zero, c, zero, zero, -s))
        y = self.norm * _legendre(self.l, am, x, sv)
        if self.m != 0:
            ca, sa = math.sqrt(2.0) * np.cos(am * U), math.sqrt(2.0) * np.sin(am * U)
            if self.m > 0:
                az = Taylor2((ca, -am * sa, zero, -(am**2) * ca, zero, zero))
            else:
                az = Taylor2((sa, am * ca, zero, -(am**2) * sa, zero, zero))
            y = y * az
        return y


@lru_cache(maxsize=None)
def _harmonic_expr(l: int, m: int) -> _Harmonic:
    """Y_{l,m} with its normalization; the closed form behind
    ``harmonic_field``."""
    if not 0 <= abs(m) <= l:
        raise ConfigError("harmonic needs |m| <= l")
    am = abs(m)
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi) * math.factorial(l - am) / math.factorial(l + am))
    return _Harmonic(l, m, norm)


def _sphere_radius(sample: SurfaceSample) -> float:
    norms = np.linalg.norm(sample.positions, axis=-1)
    r = float(np.mean(norms))
    if sample.sf.k0 != 0.0 or np.max(np.abs(norms - r)) > 1e-8 * (1.0 + r):
        raise ConfigError("operation requires a round-sphere sample in Euclidean space")
    return r


def harmonic_field(sample: SurfaceSample, l: int, m: int) -> ScalarField:
    """Y_{l,m} scaled to be L2-orthonormal on the sampled sphere, with its
    closed-form jet. ``ScalarField(harmonic_field(s, l, m).values, s)``
    keeps the values only, so its derivatives go through the grid
    operators (as the spectrum checks want)."""
    key = ("harmonic", l, m)
    if key in sample._cache:
        return sample._cache[key]
    r = _sphere_radius(sample)
    y = _harmonic_expr(l, m)
    jet = y.jet(*sample.domain.meshes()) * (1.0 / r)
    f = ScalarField(jet.value, sample, jet=jet)
    sample._cache[key] = f
    return f


def random_span_field(sample: SurfaceSample, seed: int) -> ScalarField:
    """Seeded unit-norm random combination of the harmonics with 2 <= l <= 6."""
    rng = np.random.default_rng(seed)
    total: Optional[ScalarField] = None
    coeffs = []
    for l in range(2, 7):
        for m in range(-l, l + 1):
            coeffs.append((l, m, rng.normal()))
    norm = math.sqrt(sum(c**2 for _, _, c in coeffs))
    for l, m, c in coeffs:
        term = harmonic_field(sample, l, m) * (c / norm)
        total = term if total is None else total + term
    return total


@dataclass
class HarmonicDecomposition:
    coefficients: Dict[Tuple[int, int], float]
    residual: float
    l_max: int
    norm_sq: float

    def parseval_defect(self) -> float:
        """Relative gap in sum of c^2 + residual = integral of u^2 dS."""
        total = sum(c**2 for c in self.coefficients.values()) + self.residual
        return abs(total - self.norm_sq) / max(self.norm_sq, 1e-300)

    def is_orthogonal_to_first_eigenspace(self) -> bool:
        """Every l = 1 coefficient within 1e-6 of the field's L2 norm."""
        scale = math.sqrt(max(self.norm_sq, 1e-300))
        return all(abs(self.coefficients.get((1, m), 0.0)) <= 1e-6 * scale for m in (-1, 0, 1))


def harmonic_project(u: ScalarField, l_max: int = 8) -> HarmonicDecomposition:
    """L2 projection of u onto the orthonormal harmonics up to l_max."""
    s = u.sample
    _sphere_radius(s)
    coeffs = {}
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            y = harmonic_field(s, l, m)
            coeffs[(l, m)] = integrate(u.values * y.values, s)
    norm_sq = integrate(u.values**2, s)
    residual = max(norm_sq - sum(c**2 for c in coeffs.values()), 0.0)
    return HarmonicDecomposition(coefficients=coeffs, residual=residual, l_max=l_max, norm_sq=norm_sq)


# -- the index form and residual ---------------------------------------------


def _h_power_field(s: SurfaceSample, q: float) -> ScalarField:
    """H^q as a field whose chart partials compose those of H by the
    order-2 chain rule."""
    cs = curvature_scalars(s)
    is_int = float(q).is_integer()
    if not is_int and np.any(cs.H <= 0):
        node = tuple(int(i) for i in np.unravel_index(np.argmin(cs.H), cs.H.shape))
        raise GuardViolation(f"H^q with non-integer q requires H > 0; violated at node {node}", node=node)
    qi = int(q) if is_int else q
    if is_int and qi == 0:
        return ScalarField.constant(1.0, s)
    Hf = curvature_field(s, "H")
    if is_int and qi == 1:
        return Hf  # no negative power of H is ever formed at H = 0
    H = cs.H
    jet = Hf.taylor().compose(H**qi, qi * H ** (qi - 1), qi * (qi - 1) * H ** (qi - 2))
    return ScalarField(jet.value, s, jet=jet)


def pwillmore_el_residual(s: SurfaceSample, p: float) -> ScalarField:
    """Pointwise H^p Euler-Lagrange residual:

    (p/2) Lap(H^{p-1}) + p (2H^2 - K + 2 k0) H^{p-1} - 2 H^{p+1},

    with k0 the curvature of the sample's space form.
    """
    if p < 1:
        raise ConfigError("exponent p must be >= 1")
    k0 = s.sf.k0
    cs = curvature_scalars(s)
    w = _h_power_field(s, p - 1)
    lap_w = laplace_beltrami(w, s).values
    if float(p).is_integer():
        h_p1 = cs.H ** (int(p) + 1)
    else:
        h_p1 = cs.H ** (p + 1.0)
    vals = 0.5 * p * lap_w + p * (2.0 * cs.H**2 - cs.K + 2.0 * k0) * w.values - 2.0 * h_p1
    return ScalarField(vals, s)


def sphere_index_form(setting: PWillmoreSetting, u: ScalarField) -> float:
    """Second variation of the H^p energy at S^2(r) on a volume-preserving
    deformation field:

    (1/r^p) integral of p(p-1) r^2/4 (Lap u)^2 + (p^2 - p - 1) u Lap u
      + (p-1)(p-2)/r^2 u^2 dS.
    """
    s = u.sample
    r = _sphere_radius(s)
    if abs(r - setting.r) > 1e-8 * (1.0 + setting.r):
        raise ConfigError(f"field lives on a sphere of radius {r:.6g}, setting says {setting.r:.6g}")
    mean = integrate(u, s) / (4.0 * math.pi * r**2)
    if abs(mean) > 1e-6 * (1.0 + float(np.max(np.abs(u.values)))):
        raise ConfigError("index form requires a volume-preserving field (zero mean)")
    p = setting.p
    lap_u = laplace_beltrami(u, s).values
    integrand = (
        0.25 * p * (p - 1.0) * r**2 * lap_u**2
        + (p**2 - p - 1.0) * u.values * lap_u
        + (p - 1.0) * (p - 2.0) / r**2 * u.values**2
    )
    return integrate(integrand, s) / r**p


@dataclass
class PoincareReport:
    norm_sq: float
    grad_quantity: float  # (r^2/6) integral |grad u|^2
    lap_quantity: float   # (r^4/36) integral (Lap u)^2
    passes: bool
    equality: bool
    ratios: Tuple[float, float]


def poincare_check(u: ScalarField, r: Optional[float] = None) -> PoincareReport:
    """Checks norm^2 <= (r^2/6)|grad u|^2 <= (r^4/36)(Lap u)^2 for fields
    orthogonal to constants and to the first Laplacian eigenspace."""
    s = u.sample
    r = _sphere_radius(s) if r is None else float(r)
    dec = harmonic_project(u, l_max=2)
    scale = math.sqrt(max(dec.norm_sq, 1e-300))
    if abs(dec.coefficients[(0, 0)]) > 1e-6 * scale or not dec.is_orthogonal_to_first_eigenspace():
        raise ConfigError(
            "Poincare check requires a field orthogonal to constants and to the first eigenspace"
        )
    norm_sq = integrate(u.values**2, s)
    grad_q = r**2 / 6.0 * integrate(grad_inner(u, u, s), s)
    lap_q = r**4 / 36.0 * integrate(laplace_beltrami(u, s).values ** 2, s)
    slack = 1e-8 * max(norm_sq, grad_q, lap_q)
    passes = norm_sq <= grad_q + slack and grad_q <= lap_q + slack
    equality = abs(grad_q - norm_sq) <= 1e-6 * norm_sq and abs(lap_q - norm_sq) <= 1e-6 * norm_sq
    return PoincareReport(
        norm_sq=norm_sq,
        grad_quantity=grad_q,
        lap_quantity=lap_q,
        passes=passes,
        equality=equality,
        ratios=(grad_q / norm_sq, lap_q / norm_sq),
    )


@dataclass
class StabilityReport:
    p: float
    r: float
    index_by_l: Dict[int, List[float]]
    sign_summary: str
    coercivity_bound: float
    min_rayleigh: float
    verdict: str


def coercivity_bound(p: float, r: float) -> float:
    return (2.0 * p**2 - 3.0 * p + 4.0) / (2.0 * r**2)


def stability_report(setting: PWillmoreSetting, l_max: int = 5, sample: Optional[SurfaceSample] = None) -> StabilityReport:
    """Index-form values on every harmonic up to l_max with sign summary.

    The coercivity comparison uses the Rayleigh quotient of the
    r^p-scaled index form (the integral in the index expression without
    its 1/r^p prefactor), which is the quantity bounded below by
    (2 p^2 - 3 p + 4)/(2 r^2) on the complement of the first eigenspace.
    """
    from .catalog import sample_builtin

    if sample is None:
        sample = sample_builtin("sphere", {"r": setting.r})
    p, r = setting.p, setting.r
    index_by_l: Dict[int, List[float]] = {}
    for l in range(1, l_max + 1):
        index_by_l[l] = [
            sphere_index_form(setting, harmonic_field(sample, l, m)) for m in range(-l, l + 1)
        ]
    tol = 1e-9
    l1 = index_by_l[1][1]  # all members agree by symmetry
    signs = []
    for l in range(1, l_max + 1):
        v = index_by_l[l][0]
        signs.append(f"l={l}:{'-' if v < -tol else ('0' if v <= tol else '+')}")
    sign_summary = " ".join(signs)
    min_rayleigh = min(
        r**p * v for l in range(2, l_max + 1) for v in index_by_l[l]
    ) if l_max >= 2 else float("inf")
    if l1 < -tol:
        verdict = "unstable in first eigenspace"
    elif abs(l1) <= tol:
        verdict = "marginally stable in first eigenspace"
    else:
        verdict = "stable on all tested eigenspaces"
    return StabilityReport(
        p=p,
        r=r,
        index_by_l=index_by_l,
        sign_summary=sign_summary,
        coercivity_bound=coercivity_bound(p, r),
        min_rayleigh=min_rayleigh,
        verdict=verdict,
    )
