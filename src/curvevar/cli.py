"""Command-line interface: evaluate energies and variations, verify the
evolution equations, and run the sphere stability suite or the full
verification battery, emitting machine-readable JSON or CSV.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import acceptance
from .calculus import ScalarField, area, import_field_csv, random_smooth_field
from .catalog import CATALOG_NAMES, default_domain, sample_builtin
from .curvature import curvature_scalars
from .densities import BUILTIN_DENSITIES, builtin_density
from .errors import CurveVarError, ConfigError, NotCriticalError
from .pwillmore import (
    PWillmoreSetting,
    harmonic_field,
    poincare_check,
    sphere_spectrum,
    stability_report,
)
from .variations import (
    _EVOLUTION_QUANTITIES,
    _NEEDS_F,
    el_residual,
    evolution_check,
    fd_variation_oracle,
    first_variation,
    functional_value,
    second_variation,
)

SCHEMA = "curvevar/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _parse_surface(spec: str):
    if spec is None:
        raise ConfigError("missing --surface (expected e.g. sphere:r=1 or torus:R=2,a=1)")
    name, _, rest = spec.partition(":")
    if name not in CATALOG_NAMES:
        raise ConfigError(f"unknown surface '{name}' (have: {', '.join(CATALOG_NAMES)})")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            try:
                params[key] = float(val)
            except ValueError:
                raise ConfigError(f"malformed surface parameter '{item}' (expected key=number)")
    return name, params


def _make_sample(args):
    name, params = _parse_surface(args.surface)
    domain = None
    if args.nu or args.nv:
        domain = default_domain(name, params, nu=args.nu or 128, nv=args.nv or 64)
    return sample_builtin(name, params, domain=domain)


def _make_density(args):
    if args.density is None:
        raise ConfigError(f"missing --density (have: {', '.join(BUILTIN_DENSITIES)})")
    params = {}
    for key in ("p", "k0", "c0", "kc", "kbar"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    return builtin_density(args.density, **params)


def _make_field(spec, sample):
    if spec is None:
        raise ConfigError("missing --u (expected const, harmonic:l,m, random:seed=N, or a .csv path)")
    if spec == "const":
        return ScalarField.constant(1.0, sample)
    if spec.startswith("harmonic:"):
        try:
            l, m = (int(x) for x in spec.split(":", 1)[1].split(","))
        except ValueError:
            raise ConfigError("malformed --u harmonic spec (expected harmonic:l,m)")
        return harmonic_field(sample, l, m)
    if spec.startswith("random:"):
        body = spec.split(":", 1)[1]
        if not (body.startswith("seed=") and body[5:].isdecimal()):
            raise ConfigError("malformed --u random spec (expected random:seed=N)")
        return random_smooth_field(sample, int(body[5:]), compact_v=not sample.domain.closed)
    if spec.endswith(".csv"):
        return import_field_csv(spec, sample)
    raise ConfigError(f"unrecognized --u spec '{spec}'")


def _emit(args, payload: dict, rows=None) -> None:
    out = sys.stdout if not args.output else open(args.output, "w")
    try:
        if args.format == "csv":
            if rows is not None:
                header, data = rows
                out.write(",".join(header) + "\n")
                np.savetxt(out, data, fmt="%.17g", delimiter=",")
            else:
                out.write("key,value\n")
                for key, val in sorted(_flatten(payload).items()):
                    out.write(f"{key},{val}\n")
        else:
            payload = {"schema": SCHEMA, **payload}
            out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    finally:
        if args.output:
            out.close()


def _flatten(d, prefix=""):
    flat = {}
    for key, val in d.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            flat.update(_flatten(val, name + "."))
        elif isinstance(val, (list, tuple)):
            for i, item in enumerate(val):
                flat[f"{name}[{i}]"] = item
        else:
            flat[name] = val
    return flat


def _field_rows(sample, columns: dict):
    """CSV header and one row per grid node: u, v and the named columns."""
    UU, VV = sample.domain.meshes()
    header = ["u", "v"] + list(columns)
    data = np.column_stack([UU.ravel(), VV.ravel()] + [np.asarray(c, dtype=float).ravel() for c in columns.values()])
    return header, data


# -- subcommand bodies --------------------------------------------------------


def _cmd_curvature(args):
    s = _make_sample(args)
    cs = curvature_scalars(s)
    payload = {
        "surface": args.surface,
        "H": {"min": float(cs.H.min()), "max": float(cs.H.max())},
        "K": {"min": float(cs.K.min()), "max": float(cs.K.max())},
        "K_E": {"min": float(cs.K_E.min()), "max": float(cs.K_E.max())},
        "area": float(area(s, allow_open=not s.domain.closed)),
    }
    _emit(args, payload, rows=_field_rows(s, {"H": cs.H, "K": cs.K, "K_E": cs.K_E}))
    return 0


def _cmd_energy(args):
    s = _make_sample(args)
    E = _make_density(args)
    val = functional_value(s, E, allow_open=not s.domain.closed)
    _emit(args, {"surface": args.surface, "density": E.name, "value": val})
    return 0


def _cmd_first_variation(args):
    s = _make_sample(args)
    E = _make_density(args)
    u = _make_field(args.u, s)
    allow = not s.domain.closed
    val = first_variation(s, E, u, allow_open=allow)
    payload = {"surface": args.surface, "density": E.name, "value": val}
    if args.oracle:
        rep = fd_variation_oracle(s, E, u, order=1, allow_open=allow)
        payload["oracle"] = vars(rep)
    _emit(args, payload)
    return 0


def _cmd_second_variation(args):
    s = _make_sample(args)
    E = _make_density(args)
    u = _make_field(args.u, s)
    allow = not s.domain.closed
    val = second_variation(s, E, u, allow_open=allow, force=args.force)
    payload = {"surface": args.surface, "density": E.name, "value": val}
    if args.force:
        payload["note"] = "formula outside stated validity (forced)"
    if args.oracle:
        rep = fd_variation_oracle(s, E, u, order=2, allow_open=allow, force=args.force)
        payload["oracle"] = vars(rep)
    _emit(args, payload)
    return 0


def _cmd_el_residual(args):
    s = _make_sample(args)
    E = _make_density(args)
    res = el_residual(s, E)
    payload = {
        "surface": args.surface,
        "density": E.name,
        "sup_norm": float(np.max(np.abs(res.values))),
        "mean": float(np.mean(res.values)),
    }
    _emit(args, payload, rows=_field_rows(s, {"residual": res.values}))
    return 0


def _cmd_verify_evolution(args):
    s = _make_sample(args)
    u = _make_field(args.u, s)
    f = None
    if args.quantity in _NEEDS_F:
        f = random_smooth_field(s, 202)
    rep = evolution_check(s, u, f=f, quantity=args.quantity)
    payload = {"surface": args.surface, "quantity": args.quantity, **vars(rep)}
    _emit(args, payload)
    return 0 if rep.rel_error <= 1e-4 and rep.convergence_order >= 1.9 else 2


def _cmd_sphere_stability(args):
    rep = stability_report(PWillmoreSetting(args.p if args.p is not None else 2.0, args.r), l_max=args.lmax)
    payload = {
        "p": rep.p,
        "r": rep.r,
        "index_by_l": {str(l): vals for l, vals in rep.index_by_l.items()},
        "sign_summary": rep.sign_summary,
        "coercivity_bound": rep.coercivity_bound,
        "min_rayleigh": rep.min_rayleigh,
        "verdict": rep.verdict,
    }
    _emit(args, payload)
    return 0


def _cmd_spectrum(args):
    lam, mult = sphere_spectrum(args.k, args.r)
    _emit(args, {"k": args.k, "r": args.r, "lambda": lam, "multiplicity": mult})
    return 0


def _cmd_poincare(args):
    s = sample_builtin("sphere", {"r": args.r})
    u = _make_field(args.u, s)
    rep = poincare_check(u, args.r)
    payload = {
        "norm_sq": rep.norm_sq,
        "grad_quantity": rep.grad_quantity,
        "lap_quantity": rep.lap_quantity,
        "passes": rep.passes,
        "equality": rep.equality,
        "ratios": list(rep.ratios),
    }
    _emit(args, payload)
    return 0 if rep.passes else 2


def _cmd_verify_all(args):
    results = acceptance.run_all()
    for r in results:
        print(("PASS" if r["passed"] else "FAIL") + f"  {r['id']:2d}  {r['title']}", file=sys.stderr)
    payload = {
        "criteria": results,
        "passed": all(r["passed"] for r in results),
        "n_passed": sum(r["passed"] for r in results),
        "n_total": len(results),
    }
    _emit(args, payload)
    return 0 if payload["passed"] else 2


# -- wiring -------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="curvevar", description="Curvature functionals on surfaces in space forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, surface=True, density=False, u=False):
        p.add_argument("--config", help="JSON file with defaults for any flag (explicit flags win)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--output", help="write the report here instead of stdout")
        if surface:
            p.add_argument("--surface", help="surface spec, e.g. sphere:r=1 or torus:R=2,a=1")
            p.add_argument("--nu", type=int, help="grid points in u")
            p.add_argument("--nv", type=int, help="grid points in v")
        if density:
            p.add_argument("--density", choices=BUILTIN_DENSITIES)
            p.add_argument("--p", type=float, help="exponent for the H^p density")
            p.add_argument("--k0", type=float, help="ambient curvature constant in the density")
            p.add_argument("--c0", type=float, help="spontaneous curvature (helfrich)")
            p.add_argument("--kc", type=float, help="bending modulus (helfrich)")
            p.add_argument("--kbar", type=float, help="saddle-splay modulus (helfrich)")
        if u:
            p.add_argument("--u", help="variation field: const | harmonic:l,m | random:seed=N | file.csv")

    p = sub.add_parser("curvature", help="curvature scalars of a surface")
    common(p)
    p.set_defaults(fn=_cmd_curvature)

    p = sub.add_parser("energy", help="evaluate the curvature functional")
    common(p, density=True)
    p.set_defaults(fn=_cmd_energy)

    p = sub.add_parser("first-variation", help="closed-form first variation")
    common(p, density=True, u=True)
    p.add_argument("--oracle", action="store_true", help="also run the deformation oracle")
    p.set_defaults(fn=_cmd_first_variation)

    p = sub.add_parser("second-variation", help="closed-form second variation at a critical immersion")
    common(p, density=True, u=True)
    p.add_argument("--oracle", action="store_true", help="also run the deformation oracle")
    p.add_argument("--force", action="store_true", help="evaluate even if the surface is not critical")
    p.set_defaults(fn=_cmd_second_variation)

    p = sub.add_parser("el-residual", help="pointwise Euler-Lagrange residual")
    common(p, density=True)
    p.set_defaults(fn=_cmd_el_residual)

    p = sub.add_parser("verify-evolution", help="check one evolution equation by deformation")
    common(p, u=True)
    p.add_argument("--quantity", choices=_EVOLUTION_QUANTITIES, default="2H")
    p.set_defaults(fn=_cmd_verify_evolution)

    p = sub.add_parser("sphere-stability", help="H^p stability report for the round sphere")
    common(p, surface=False)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--lmax", type=int, default=5)
    p.set_defaults(fn=_cmd_sphere_stability)

    p = sub.add_parser("spectrum", help="Laplacian eigenvalue and multiplicity on the sphere")
    common(p, surface=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=float, default=1.0)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("poincare", help="Poincare inequality check on the sphere")
    common(p, surface=False, u=True)
    p.add_argument("--r", type=float, default=1.0)
    p.set_defaults(fn=_cmd_poincare)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    common(p, surface=False)
    p.set_defaults(fn=_cmd_verify_all)

    return parser


def _apply_config(args):
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read --config file: {exc}")
        if not isinstance(conf, dict):
            raise ConfigError("--config must contain a JSON object")
        for key, val in conf.items():
            attr = key.replace("-", "_")
            if not hasattr(args, attr):
                raise ConfigError(f"unknown config key '{key}'")
            if getattr(args, attr) in (None, False):
                setattr(args, attr, val)
    if args.format is None:
        args.format = "json"


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _apply_config(args)
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except NotCriticalError as exc:
        print(f"curvevar: {exc}", file=sys.stderr)
        return 2
    except CurveVarError as exc:
        print(f"curvevar: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
