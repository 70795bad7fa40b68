"""The benchmark's workloads and the known answers every op is checked against.

Each workload is a closed loop with one client: a round is a fixed list
of ops, run one after another. The workload seed only picks the case
order and the seeds of the random variation fields; the program sees
the generated inputs and nothing else.

Tolerances, with the acceptance criterion (``curvevar.acceptance``) each
one may not be looser than:

- closed-form energies: relative 1e-8 (criteria 1, 2); Clifford torus
  Willmore energy 1e-7 (criterion 12);
- Gauss-Bonnet totals: absolute 1e-7 * 4 pi (criterion 14);
- second variations and sphere index forms against the index-form closed
  form: relative 1e-6 (criterion 7);
- Euler-Lagrange residual where the surface is critical: sup <= 1e-6
  (criterion 12); |H| <= 1e-8 on minimal surfaces (criterion 12);
- oracle reports: order 1 rel_error <= 1e-5 and convergence order >= 1.9
  (criterion 3); order 2 rel_error <= 1e-4 (criterion 6); evolution
  checks rel_error <= 1e-4 and order >= 1.9 (criterion 5).

Checks no criterion covers, with the reason for the tolerance:

- pairing identity integral(el_residual * u) = first_variation(u):
  relative (to max(|a|, |b|, 1)) 1e-10 on exact-jet samples and 1e-6 on
  finite-difference-jet samples, whose jets carry ~1e-9 truncation error;
- pointwise H and K against closed forms: relative 1e-8 on exact jets,
  1e-6 on finite-difference jets;
- areas against closed forms: relative 1e-8.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bench_checks import CheckLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

GRIDS = {"small": (64, 32), "medium": (128, 64), "large": (256, 128)}
FOUR_PI = 4.0 * math.pi
GB_TOL = 1e-7 * FOUR_PI
PAIR_TOL = {"analytic": 1e-10, "numeric_jets": 1e-6}
POINT_TOL = {"analytic": 1e-8, "numeric_jets": 1e-6}

# ellipsoid semi-axes and the geodesic radius of the H^3 sphere
ELLIPSOID = (1.0, 1.5, 0.8)
H3_RADIUS = 0.7


@dataclass
class Op:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict, CheckLog], None]


# -- known answers ------------------------------------------------------------


def torus_willmore(R: float, a: float) -> float:
    """integral H^2 dS of the round torus: pi^2 c^2 / sqrt(c^2 - 1), c = R/a."""
    c = R / a
    return math.pi**2 * c**2 / math.sqrt(c**2 - 1.0)


def torus_helfrich(R: float, a: float, kc: float, c0: float, kbar: float) -> float:
    """integral kc (2H + c0)^2 + kbar K dS of the round torus, using
    integral H dS = 2 pi^2 R, area 4 pi^2 R a and integral K dS = 0."""
    return kc * (4.0 * torus_willmore(R, a) + 4.0 * c0 * 2.0 * math.pi**2 * R + c0**2 * 4.0 * math.pi**2 * R * a)


def sphere_index(p: float, r: float, l: int) -> float:
    """H^p sphere index form on an L2-unit degree-l harmonic (the closed
    form behind ``pwillmore.sphere_index_form``)."""
    lam = l * (l + 1) / r**2
    return (0.25 * p * (p - 1.0) * r**2 * lam**2 - (p**2 - p - 1.0) * lam + (p - 1.0) * (p - 2.0) / r**2) / r**p


def clifford_willmore_hessian(m: int, n: int) -> float:
    """Second variation of integral (H^2 + 1) dS at the minimal Clifford
    torus in S^3 along u = cos(m u) cos(n v), m, n >= 1.

    With L = Lap + |h|^2 + 2 = Lap + 4 the Jacobi operator, the second
    variation at a minimal surface is integral (L u)^2 / 2 - u L u dS;
    on the flat chart Lap u = -2 (m^2 + n^2) u and integral u^2 dS = pi^2 / 2.
    """
    c = 4.0 - 2.0 * (m**2 + n**2)
    return (0.5 * c**2 - c) * math.pi**2 / 2.0


def geodesic_sphere_willmore_hessian(l: int, a: float) -> float:
    """Second variation of integral (H^2 + 1) dS (and so of the bending
    energy, which differs by the constant 4 pi) at the geodesic sphere of
    radius a in the unit S^3, along an L2-unit degree-l harmonic.

    Stereographic projection is conformal and the sphere is critical, so
    this equals the Euclidean value (1/2) lam (lam - 2 / r^2) * integral w^2
    of the image sphere; the conformal factor cancels, leaving
    (l(l+1)/2) (l(l+1) - 2) / sin(a)^4.
    """
    ll = l * (l + 1)
    return 0.5 * ll * (ll - 2.0) / math.sin(a) ** 4


def ellipsoid_area(a: float, b: float, c: float) -> float:
    """Surface area of the ellipsoid with semi-axes a >= b >= c."""
    from scipy.special import ellipeinc, ellipkinc

    a, b, c = sorted((a, b, c), reverse=True)
    phi = math.acos(c / a)
    k2 = a**2 * (b**2 - c**2) / (b**2 * (a**2 - c**2))
    s = math.sin(phi)
    return 2.0 * math.pi * c**2 + 2.0 * math.pi * a * b / s * (
        float(ellipeinc(phi, k2)) * s**2 + float(ellipkinc(phi, k2)) * math.cos(phi) ** 2
    )


def ellipsoid_curvatures(pos: np.ndarray) -> tuple:
    """Closed-form |H| and K of the ellipsoid at surface points ``pos``."""
    a, b, c = ELLIPSOID
    x, y, z = pos[..., 0], pos[..., 1], pos[..., 2]
    q = x**2 / a**4 + y**2 / b**4 + z**2 / c**4
    K = 1.0 / ((a * b * c) ** 2 * q**2)
    H = (a**2 + b**2 + c**2 - x**2 - y**2 - z**2) / (2.0 * (a * b * c) ** 2 * q**1.5)
    return H, K


def ellipsoid_map(U, V):
    a, b, c = ELLIPSOID
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    return np.stack([a * np.sin(V) * np.cos(U), b * np.sin(V) * np.sin(U), c * np.cos(V)], axis=-1)


def h3_sphere_map(U, V):
    """Geodesic sphere of radius H3_RADIUS about the hyperboloid's vertex."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    sh = math.sinh(H3_RADIUS)
    return np.stack(
        [sh * np.sin(V) * np.cos(U), sh * np.sin(V) * np.sin(U), sh * np.cos(V), np.full(U.shape, math.cosh(H3_RADIUS))],
        axis=-1,
    )


def check_stability(log: CheckLog, rep: dict, p: float = 3.0, r: float = 1.0) -> None:
    """Sphere stability report for H^p at S^2(r), p = 3."""
    log.equal("stability.verdict", rep["verdict"], "unstable in first eigenspace")
    for l, vals in sorted(rep["index_by_l"].items(), key=lambda kv: int(kv[0])):
        want = sphere_index(p, r, int(l))
        log.equal(f"stability.l{l}.count", len(vals), 2 * int(l) + 1)
        for m, v in enumerate(vals):
            log.rel(f"stability.l{l}.{m}", v, want, 1e-6)
    log.rel("stability.coercivity_bound", rep["coercivity_bound"], (2.0 * p**2 - 3.0 * p + 4.0) / (2.0 * r**2), 1e-12)
    log.rel("stability.min_rayleigh", rep["min_rayleigh"], r**p * sphere_index(p, r, 2), 1e-6)


def check_oracle(log: CheckLog, name: str, rep, order: int) -> None:
    if order == 1:
        log.report_error(f"{name}.rel_error", rep.rel_error, 1e-5)
        log.at_least(f"{name}.convergence_order", rep.convergence_order, 1.9)
    else:
        log.report_error(f"{name}.rel_error", rep.rel_error, 1e-4)


def check_pairing(log: CheckLog, out: dict, provenance: str) -> None:
    pair, fv = out["pair"], out["fv"]
    err = abs(pair - fv) / max(abs(pair), abs(fv), 1.0)
    log.report_error("pairing", err, PAIR_TOL[provenance])


# -- shared workload plumbing --------------------------------------------------


class Workload:
    name = ""
    in_process = True  # set-up includes importing curvevar in this process
    # one in-process set-up builds 4-5 symbolic charts (9-17 s on a 2-core
    # sandbox); repeating it would leave too little of the time budget to measure
    setup_repeats = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.tracer = None

    def round_ops(self) -> list:
        """The ops of one round; the same list for the same seed."""
        self.rng = np.random.default_rng(self.seed)
        return self.ops()

    def reset(self) -> None:
        """Drop every program cache that set-up fills, so the next set-up is cold."""
        import sympy

        from curvevar import catalog, pwillmore

        catalog._bundle.cache_clear()
        pwillmore._harmonic_expr.cache_clear()
        sympy.core.cache.clear_cache()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def field_seed(self) -> int:
        return int(self.rng.integers(0, 1_000_000))

    def position_map(self, f, domain):
        """The bench-owned position map, counted when tracing."""
        if self.tracer is None:
            return f
        return self.tracer.counted_position_map(f, domain.nu * domain.nv)

    def orient(self, f, sf) -> float:
        """Orientation sign giving H > 0, read once from a small sample."""
        import curvevar as cv

        domain = cv.default_domain("sphere", None, *GRIDS["small"])
        s = cv.sample_callable(self.position_map(f, domain), domain, sf=sf)
        return 1.0 if float(np.mean(cv.curvature_scalars(s).H)) > 0.0 else -1.0

    def numeric_sample(self, f, sf, domain, name):
        import curvevar as cv

        sign = self.orientation[f.__name__]
        return cv.sample_callable(self.position_map(f, domain), domain, sf=sf, orientation_sign=sign, name=name)


# -- cli_cold ---------------------------------------------------------------------

CLI_CYCLE = [
    ("energy_torus", ["energy", "--surface", "torus:R=2,a=1", "--density", "bending"]),
    ("energy_sphere", ["energy", "--surface", "sphere:r=1", "--density", "willmore"]),
    ("energy_clifford", ["energy", "--surface", "clifford_torus_S3", "--density", "willmore", "--k0", "1"]),
    ("curvature_catenoid_csv", ["curvature", "--surface", "catenoid", "--format", "csv"]),
    ("el_residual_sphere", ["el-residual", "--surface", "sphere:r=1.5", "--density", "willmore"]),
    (
        "second_variation_sphere",
        ["second-variation", "--surface", "sphere:r=1", "--density", "pwillmore", "--p", "3", "--u", "harmonic:2,0"],
    ),
    ("sphere_stability", ["sphere-stability", "--p", "3"]),
    ("spectrum", ["spectrum", "--k", "2"]),
]
CLI_WARMUP = ["spectrum", "--k", "2"]
CLI_TIMEOUT_S = 170


def check_cli(key: str, returncode: int, stdout: str, log: CheckLog) -> None:
    log.equal("exit_code", returncode, 0)
    if returncode != 0:
        return
    if key == "curvature_catenoid_csv":
        lines = stdout.splitlines()
        log.equal("csv.header", lines[0] if lines else "", "u,v,H,K,K_E")
        data = np.loadtxt(io.StringIO(stdout), delimiter=",", skiprows=1, ndmin=2)
        log.equal("csv.rows", data.shape, (128 * 64, 5))
        if data.shape != (128 * 64, 5):
            return
        u, v, H, K, KE = data.T
        UU, VV = np.meshgrid(2.0 * np.pi * np.arange(128) / 128, np.linspace(-1.2, 1.2, 64), indexing="ij")
        log.pointwise("csv.u", u, UU.ravel(), 1e-15)
        log.pointwise("csv.v", v, VV.ravel(), 1e-15)
        log.absolute("csv.H_sup", float(np.max(np.abs(H))), 0.0, 1e-8)
        log.pointwise("csv.K", K, -1.0 / np.cosh(v) ** 4, POINT_TOL["analytic"])
        log.absolute("csv.K_E_gap", float(np.max(np.abs(KE - K))), 0.0, 1e-9)
        return
    payload = json.loads(stdout)
    log.equal("schema", payload.get("schema"), "curvevar/1")
    if key == "energy_torus":
        log.rel("value", payload["value"], torus_willmore(2.0, 1.0), 1e-8)
    elif key == "energy_sphere":
        log.rel("value", payload["value"], FOUR_PI, 1e-8)
    elif key == "energy_clifford":
        log.rel("value", payload["value"], 2.0 * math.pi**2, 1e-7)
    elif key == "el_residual_sphere":
        log.absolute("sup_norm", payload["sup_norm"], 0.0, 1e-6)
        log.absolute("mean", payload["mean"], 0.0, 1e-6)
    elif key == "second_variation_sphere":
        log.rel("value", payload["value"], sphere_index(3.0, 1.0, 2), 1e-6)
    elif key == "sphere_stability":
        check_stability(log, payload)
    elif key == "spectrum":
        log.rel("lambda", payload["lambda"], 6.0, 1e-12)
        log.equal("multiplicity", payload["multiplicity"], 6)
    else:
        log.fail("command", f"no known answer for {key}")


class CliCold(Workload):
    """Fresh CLI processes: import, catalog build and density lambdify are
    paid on every call, as users of the command line pay them."""

    name = "cli_cold"
    in_process = False
    setup_repeats = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        self._calls = 0
        # the cycle order is fixed; the seed picks where it starts
        k = seed % len(CLI_CYCLE)
        self.cycle = CLI_CYCLE[k:] + CLI_CYCLE[:k]

    def reset(self) -> None:
        pass  # every call is its own process

    def call(self, argv: list, op: str):
        cmd = [sys.executable, str(HERE / "cli_child.py")]
        trace_file = None
        if self.tracer is not None:
            self._calls += 1
            trace_file = OUT / f"child-{os.getpid()}-{self._calls}.json"
            cmd += ["--trace-out", str(trace_file)]
        proc = subprocess.run(cmd + ["--"] + argv, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if trace_file is not None:
            try:
                with open(trace_file) as fh:
                    data = json.load(fh)
            finally:
                trace_file.unlink(missing_ok=True)
            self.tracer.extend(data["spans"], data["counts"], op)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        return proc

    def setup(self) -> None:
        proc = self.call(CLI_WARMUP, "setup")
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up call failed with exit code {proc.returncode}")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def ops(self) -> list:
        def make(key, argv):
            def run():
                proc = self.call(argv, key)
                return {"returncode": proc.returncode, "stdout": proc.stdout}

            def check(out, log):
                check_cli(key, out["returncode"], out["stdout"], log)

            return Op(key, run, check)

        return [make(key, argv) for key, argv in self.cycle]


# -- variations_warm ------------------------------------------------------------------


@dataclass
class Case:
    key: str
    grid: str
    density: str
    expected_F: float | None  # None: only the Willmore bound F >= 4 pi is known
    F_tol: float
    F_abs: bool = False
    chi_K: float | None = None  # expected integral of K dS
    second: str | None = None  # which second-variation field, if any
    stability: bool = False
    pointwise: str | None = None
    area: float | None = None


# exact-jet cases at critical immersions, where the EL residual must vanish
CRITICAL_EXACT = ("sphere_willmore", "clifford_willmore", "geodesic_sphere_S3_bending")


class VariationsWarm(Workload):
    """Closed-form functional values, variations and EL residuals on fresh
    samples of already-built charts, with no deformation at all."""

    name = "variations_warm"

    CHARTS = (
        ("torus", {"R": 2.0, "a": 1.0}),
        ("sphere", {"r": 1.0}),
        ("clifford_torus_S3", {}),
        ("geodesic_sphere_S3", {"a": math.pi / 4}),
    )

    CASES = (
        # each case keeps its grid so a round's cost does not depend on the seed;
        # the grids put analytic and numeric-jet cases on both sides of the L2,
        # and the two ops around the median latency near 1 s, where the
        # machine's sub-second speed jitter averages out
        Case("torus_bending", "large", "bending", torus_willmore(2.0, 1.0), 1e-8, chi_K=0.0),
        Case("torus_helfrich", "medium", "helfrich", torus_helfrich(2.0, 1.0, 1.0, 0.3, 0.5), 1e-8, chi_K=0.0),
        Case("sphere_willmore", "medium", "willmore", FOUR_PI, 1e-8, chi_K=FOUR_PI, second="Y20"),
        Case("sphere_pwillmore3", "small", "pwillmore3", FOUR_PI, 1e-8, chi_K=FOUR_PI, second="Y20", stability=True),
        Case("clifford_willmore", "large", "willmore_k1", 2.0 * math.pi**2, 1e-7, chi_K=0.0, second="clifford"),
        Case(
            "geodesic_sphere_S3_bending", "small", "bending_k1", 0.0, 1e-8 * FOUR_PI, F_abs=True, chi_K=FOUR_PI,
            second="geodesic_Y20", pointwise="geodesic_S3",
        ),
        Case(
            "ellipsoid_willmore", "medium", "willmore", None, 0.0, chi_K=FOUR_PI,
            pointwise="ellipsoid", area=ellipsoid_area(*ELLIPSOID),
        ),
        Case(
            "h3_sphere_willmore", "large", "willmore_km1", FOUR_PI, 1e-8, chi_K=FOUR_PI,
            pointwise="h3", area=FOUR_PI * math.sinh(H3_RADIUS) ** 2,
        ),
    )

    def setup(self) -> None:
        import curvevar as cv

        small = [cv.sample_builtin(n, p, domain=cv.default_domain(n, p, *GRIDS["small"])) for n, p in self.CHARTS]
        self.setting = cv.PWillmoreSetting(3.0)
        # builds the symbolic spherical harmonics every stability report reuses
        cv.stability_report(self.setting, sample=small[1])
        self.densities = {
            "bending": cv.builtin_density("bending"),
            "helfrich": cv.builtin_density("helfrich", kc=1.0, c0=0.3, kbar=0.5),
            "willmore": cv.builtin_density("willmore"),
            "pwillmore3": cv.builtin_density("pwillmore", p=3),
            "willmore_k1": cv.builtin_density("willmore", k0=1.0),
            "bending_k1": cv.builtin_density("bending", k0=1.0),
            "willmore_km1": cv.builtin_density("willmore", k0=-1.0),
        }
        self.h3 = cv.SpaceForm.hyperbolic(1.0)
        self.orientation = {
            "ellipsoid_map": self.orient(ellipsoid_map, cv.SpaceForm.euclidean()),
            "h3_sphere_map": self.orient(h3_sphere_map, self.h3),
        }

    def sample(self, case: Case):
        import curvevar as cv

        nu, nv = GRIDS[case.grid]
        if case.pointwise == "ellipsoid":
            domain = cv.default_domain("sphere", None, nu, nv)
            return self.numeric_sample(ellipsoid_map, cv.SpaceForm.euclidean(), domain, "ellipsoid")
        if case.pointwise == "h3":
            domain = cv.default_domain("sphere", None, nu, nv)
            return self.numeric_sample(h3_sphere_map, self.h3, domain, "h3_sphere")
        name, params = {
            "torus": self.CHARTS[0],
            "sphere": self.CHARTS[1],
            "clifford": self.CHARTS[2],
            "geodesic": self.CHARTS[3],
        }[case.key.split("_")[0]]
        return cv.sample_builtin(name, params, domain=cv.default_domain(name, params, nu, nv))

    def ops(self) -> list:
        cases = [self.CASES[i] for i in self.rng.permutation(len(self.CASES))]
        return [self._op(case, self.field_seed(), tuple(int(x) for x in self.rng.integers(1, 4, size=2))) for case in cases]

    def _op(self, case: Case, seed: int, mn: tuple) -> Op:
        def run():
            import sympy as sp

            import curvevar as cv

            s = self.sample(case)
            E = self.densities[case.density]
            cs = cv.curvature_scalars(s)
            out = {"provenance": s.provenance.value, "F": cv.functional_value(s, E), "gb": cv.integrate(cs.K, s)}
            u = cv.random_smooth_field(s, seed)
            out["fv"] = cv.first_variation(s, E, u)
            res = cv.el_residual(s, E)
            out["pair"] = cv.integrate(res.values * u.values, s)
            out["el_sup"] = float(np.max(np.abs(res.values)))
            if case.second == "Y20":
                out["second"] = cv.second_variation(s, E, cv.harmonic_field(s, 2, 0))
            elif case.second == "geodesic_Y20":
                V = sp.Symbol("v", real=True)
                y20 = sp.sqrt(sp.Rational(5, 16) / sp.pi) * (3 * sp.cos(V) ** 2 - 1)
                w = cv.ScalarField.from_expr(y20 / sp.Float(math.sin(self.CHARTS[3][1]["a"])), s)
                out["second"] = cv.second_variation(s, E, w)
            elif case.second == "clifford":
                U, V = sp.symbols("u v", real=True)
                w = cv.ScalarField.from_expr(sp.cos(mn[0] * U) * sp.cos(mn[1] * V), s)
                out["second"] = cv.second_variation(s, E, w)
            if case.stability:
                rep = cv.stability_report(self.setting, sample=s)
                out["stability"] = {
                    "verdict": rep.verdict,
                    "index_by_l": rep.index_by_l,
                    "coercivity_bound": rep.coercivity_bound,
                    "min_rayleigh": rep.min_rayleigh,
                }
            if case.pointwise is not None:
                out["H"], out["K"], out["positions"] = cs.H, cs.K, s.positions
            if case.area is not None:
                out["area"] = cv.area(s)
            return out

        def check(out, log):
            prov = out["provenance"]
            if case.expected_F is None:
                log.at_least("F_willmore_bound", out["F"], FOUR_PI)
            elif case.F_abs:
                log.absolute("F", out["F"], case.expected_F, case.F_tol, scale=FOUR_PI)
            else:
                log.rel("F", out["F"], case.expected_F, case.F_tol)
            if case.chi_K is not None:
                log.absolute("gauss_bonnet", out["gb"], case.chi_K, GB_TOL, scale=FOUR_PI)
            check_pairing(log, out, prov)
            if case.key in CRITICAL_EXACT:
                log.absolute("el_sup", out["el_sup"], 0.0, 1e-6)
            else:
                # also on the Willmore-critical H^3 sphere, whose finite-difference
                # jets leave a residual that grows with the grid (see README)
                log.observe("el_sup", out["el_sup"])
            if case.second == "Y20":
                p = 3.0 if case.density == "pwillmore3" else 2.0
                log.rel("second_variation", out["second"], sphere_index(p, 1.0, 2), 1e-6)
            elif case.second == "geodesic_Y20":
                log.rel("second_variation", out["second"], geodesic_sphere_willmore_hessian(2, math.pi / 4), 1e-6)
            elif case.second == "clifford":
                want = clifford_willmore_hessian(*mn)
                log.absolute("second_variation", out["second"], want, 1e-6 * max(abs(want), 1.0), scale=max(abs(want), 1.0))
            if case.stability:
                check_stability(log, out["stability"])
            if case.pointwise == "geodesic_S3":
                a = math.pi / 4
                log.pointwise("H", out["H"], np.full(out["H"].shape, 1.0 / math.tan(a)), POINT_TOL[prov])
                log.pointwise("K", out["K"], np.full(out["K"].shape, 1.0 / math.sin(a) ** 2), POINT_TOL[prov])
            elif case.pointwise == "ellipsoid":
                H, K = ellipsoid_curvatures(out["positions"])
                log.pointwise("H", out["H"], H, POINT_TOL[prov])
                log.pointwise("K", out["K"], K, POINT_TOL[prov])
            elif case.pointwise == "h3":
                a = H3_RADIUS
                log.pointwise("H", out["H"], np.full(out["H"].shape, 1.0 / math.tanh(a)), POINT_TOL[prov])
                log.pointwise("K", out["K"], np.full(out["K"].shape, 1.0 / math.sinh(a) ** 2), POINT_TOL[prov])
            if case.area is not None:
                log.rel("area", out["area"], case.area, 1e-8)

        return Op(f"{case.key}@{'x'.join(map(str, GRIDS[case.grid]))}", run, check)


# -- oracle ---------------------------------------------------------------------------


class Oracle(Workload):
    """Deformation oracles at the default grids: every op builds four or
    five deformed samples with finite-difference jets."""

    name = "oracle"

    CHARTS = (
        ("torus", {"R": 2.0, "a": 1.0}),
        ("catenoid", {}),
        ("sphere", {"r": 1.0}),
        ("clifford_torus_S3", {}),
        ("geodesic_sphere_S3", {"a": math.pi / 4}),
    )

    def setup(self) -> None:
        import curvevar as cv

        for name, params in self.CHARTS:
            cv.sample_builtin(name, params, domain=cv.default_domain(name, params, *GRIDS["small"]))
        self.densities = {
            "bending": cv.builtin_density("bending"),
            "bending_km1": cv.builtin_density("bending", k0=-1.0),
            "pwillmore3": cv.builtin_density("pwillmore", p=3),
            "willmore_k1": cv.builtin_density("willmore", k0=1.0),
        }
        self.h3 = cv.SpaceForm.hyperbolic(1.0)
        self.orientation = {"h3_sphere_map": self.orient(h3_sphere_map, self.h3)}

    def ops(self) -> list:
        import curvevar as cv

        def chart(i):
            name, params = self.CHARTS[i]
            return cv.sample_builtin(name, params)

        def fd(key, make, density, order, **kw):
            seed = self.field_seed()

            def run():
                s, u = make(seed)
                return {"rep": cv.fd_variation_oracle(s, self.densities[density], u, order=order, **kw)}

            return Op(key, run, lambda out, log: check_oracle(log, key, out["rep"], order))

        def evolution(key, i):
            seeds = (self.field_seed(), self.field_seed())

            def run():
                s = chart(i)
                u = cv.random_smooth_field(s, seeds[0])
                f = cv.random_smooth_field(s, seeds[1])
                return {"reps": cv.evolution_check_many(s, u, f=f)}

            def check(out, log):
                log.equal("quantities", sorted(out["reps"]), sorted(("g", "g_inv", "dS", "2H", "K", "laplacian_f", "h_hess_f")))
                for q, rep in out["reps"].items():
                    log.report_error(f"{q}.rel_error", rep.rel_error, 1e-4)
                    log.at_least(f"{q}.convergence_order", rep.convergence_order, 1.9)

            return Op(key, run, check)

        def torus(seed):
            s = chart(0)
            return s, cv.random_smooth_field(s, seed)

        def catenoid(seed):
            s = chart(1)
            return s, cv.random_smooth_field(s, seed, compact_v=True)

        def h3(seed):
            s = self.numeric_sample(h3_sphere_map, self.h3, cv.default_domain("sphere"), "h3_sphere")
            return s, cv.random_smooth_field(s, seed)

        def sphere_y20(seed):
            s = chart(2)
            return s, cv.harmonic_field(s, 2, 0)

        def clifford_cos(seed):
            import sympy as sp

            U, V = sp.symbols("u v", real=True)
            s = chart(3)
            return s, cv.ScalarField.from_expr(sp.cos(U) * sp.cos(V), s)

        ops = [
            fd("order1_torus_bending", torus, "bending", 1),
            fd("order1_catenoid_bending", catenoid, "bending", 1, allow_open=True),
            fd("order1_h3_sphere_bending", h3, "bending_km1", 1),
            fd("order2_sphere_pwillmore3", sphere_y20, "pwillmore3", 2),
            fd("order2_clifford_willmore", clifford_cos, "willmore_k1", 2),
            fd("order2_catenoid_pwillmore3", catenoid, "pwillmore3", 2, allow_open=True),
            evolution("evolution_torus", 0),
            evolution("evolution_geodesic_sphere_S3", 4),
        ]
        return [ops[i] for i in self.rng.permutation(len(ops))]


WORKLOADS = {w.name: w for w in (CliCold, VariationsWarm, Oracle)}
