"""Command-line interface: evaluate energies and variations, verify the
evolution equations, and run the sphere stability suite or the full
verification battery, emitting machine-readable JSON or CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .errors import CurveVarError, ConfigError, NotCriticalError
from .spectrum import sphere_spectrum

# numpy and the numeric layers are imported in the subcommand bodies that
# use them, so parsing, --help, usage errors and spectrum import none

SCHEMA = "curvevar/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _parse_surface(spec: str):
    if spec is None:
        raise ConfigError("missing --surface (expected e.g. sphere:r=1 or torus:R=2,a=1)")
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if key in params:
                raise ConfigError(f"surface parameter '{key}' is given twice in '{spec}'")
            try:
                params[key] = float(val)
            except ValueError:
                raise ConfigError(f"malformed surface parameter '{item}' (expected key=number)")
    return name, params


def _make_sample(args):
    from .catalog import default_domain, sample_builtin

    name, params = _parse_surface(args.surface)
    grid = {key: val for key in ("nu", "nv") if (val := getattr(args, key)) is not None}
    domain = default_domain(name, params, **grid) if grid else None
    return sample_builtin(name, params, domain=domain)


def _make_density(args):
    from .densities import BUILTIN_DENSITIES, builtin_density

    if args.density is None:
        raise ConfigError(f"missing --density (have: {', '.join(BUILTIN_DENSITIES)})")
    params = {}
    for key in ("p", "k0", "c0", "kc", "kbar"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    return builtin_density(args.density, **params)


def _make_field(spec, sample):
    from .calculus import ScalarField, import_field_csv, random_smooth_field

    if spec is None:
        raise ConfigError("missing --u (expected const, harmonic:l,m, random:seed=N, or a .csv path)")
    if spec == "const":
        return ScalarField.constant(1.0, sample)
    if spec.startswith("harmonic:"):
        from .pwillmore import harmonic_field

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
    try:
        out = sys.stdout if not args.output else open(args.output, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write --output file '{args.output}': {exc.strerror}") from None
    try:
        if args.format == "csv":
            if rows is not None:
                from .calculus import _write_node_rows

                _write_node_rows(out, *rows)
            else:
                writer = csv.writer(out, lineterminator="\n")
                writer.writerow(("key", "value"))
                writer.writerows((key, f"{val}") for key, val in sorted(_flatten(payload).items()))
        else:
            payload = {"schema": SCHEMA, **payload}
            out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    finally:
        if args.output:
            out.close()


def _flatten(val, name=""):
    """The leaves of nested dicts and lists, keyed like a.b[0].c."""
    if isinstance(val, dict):
        items = ((f"{name}.{key}" if name else f"{key}", item) for key, item in val.items())
    elif isinstance(val, (list, tuple)):
        items = ((f"{name}[{i}]", item) for i, item in enumerate(val))
    else:
        return {name: val}
    flat = {}
    for key, item in items:
        flat.update(_flatten(item, key))
    return flat


# -- subcommand bodies --------------------------------------------------------


def _cmd_curvature(args):
    from .calculus import _node_rows, area
    from .curvature import curvature_scalars

    s = _make_sample(args)
    cs = curvature_scalars(s)
    payload = {
        "surface": args.surface,
        "H": {"min": float(cs.H.min()), "max": float(cs.H.max())},
        "K": {"min": float(cs.K.min()), "max": float(cs.K.max())},
        "K_E": {"min": float(cs.K_E.min()), "max": float(cs.K_E.max())},
        "area": float(area(s)),
    }
    _emit(args, payload, rows=_node_rows(s, {"H": cs.H, "K": cs.K, "K_E": cs.K_E}))
    return 0


def _cmd_energy(args):
    from .variations import functional_value

    s = _make_sample(args)
    E = _make_density(args)
    _emit(args, {"surface": args.surface, "density": E.name, "value": functional_value(s, E)})
    return 0


def _cmd_variation(args, order: int):
    from .variations import _oracle_core, first_variation, oracle_passes, second_variation

    s = _make_sample(args)
    E = _make_density(args)
    u = _make_field(args.u, s)
    force = order == 2 and args.force
    if args.oracle:
        # one pass classifies the immersion (order 2) and evaluates the formula once
        (val,), (rep,) = _oracle_core(s, (E,), u, order, True, force)
    elif order == 1:
        val = first_variation(s, E, u)
    else:
        val = second_variation(s, E, u, force=force)
    payload = {"surface": args.surface, "density": E.name, "value": val}
    if force:
        payload["note"] = "formula outside stated validity (forced)"
    if args.oracle:
        payload["oracle"] = vars(rep)
    _emit(args, payload)
    check = "first_variation" if order == 1 else "second_variation"
    if args.oracle and not oracle_passes(check, rep.rel_error, rep.convergence_order):
        print(f"curvevar: oracle check failed (rel_error {rep.rel_error:.3e}, order {rep.convergence_order:.3f})", file=sys.stderr)
        return 2
    return 0


def _cmd_el_residual(args):
    import numpy as np

    from .calculus import _node_rows
    from .variations import _area_mean, el_residual

    s = _make_sample(args)
    E = _make_density(args)
    res = el_residual(s, E)
    payload = {
        "surface": args.surface,
        "density": E.name,
        "sup_norm": float(np.max(np.abs(res.values))),
        "mean": _area_mean(res),
    }
    _emit(args, payload, rows=_node_rows(s, {"residual": res.values}))
    return 0


def _cmd_verify_evolution(args):
    from .calculus import random_smooth_field
    from .variations import _NEEDS_F, evolution_check, oracle_passes

    s = _make_sample(args)
    u = _make_field(args.u, s)
    f = None
    if args.quantity in _NEEDS_F:
        f = random_smooth_field(s, 202)
    rep = evolution_check(s, u, f=f, quantity=args.quantity)
    payload = {"surface": args.surface, "quantity": args.quantity, **vars(rep)}
    _emit(args, payload)
    return 0 if oracle_passes("evolution", rep.rel_error, rep.convergence_order) else 2


def _cmd_sphere_stability(args):
    from .pwillmore import PWillmoreSetting, stability_report

    rep = stability_report(PWillmoreSetting(args.p, args.r), l_max=args.lmax)
    # str keys: the JSON key order stays lexicographic ("10" before "2")
    _emit(args, {**vars(rep), "index_by_l": {str(l): vals for l, vals in rep.index_by_l.items()}})
    return 0


def _cmd_spectrum(args):
    lam, mult = sphere_spectrum(args.k, args.r)
    _emit(args, {"k": args.k, "r": args.r, "lambda": lam, "multiplicity": mult})
    return 0


def _cmd_poincare(args):
    from .catalog import sample_builtin
    from .pwillmore import poincare_check

    s = sample_builtin("sphere", {"r": args.r})
    u = _make_field(args.u, s)
    rep = poincare_check(u)
    _emit(args, vars(rep))
    return 0 if rep.passes else 2


def _cmd_verify_all(args):
    from . import acceptance

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
        p.add_argument("--config", help="JSON file with values for any flag (explicit flags win)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", help="write the report here instead of stdout")
        if surface:
            p.add_argument("--surface", help="surface spec, e.g. sphere:r=1 or torus:R=2,a=1")
            p.add_argument("--nu", type=int, help="grid points in u")
            p.add_argument("--nv", type=int, help="grid points in v")
        if density:
            p.add_argument("--density", help="built-in density, e.g. willmore (an unknown name lists them all)")
            p.add_argument("--p", type=float, help="exponent for the H^p density")
            p.add_argument("--k0", type=float, help="the density's constant k0: 0 unless given, not the space form's curvature (unit S^3: --k0 1)")
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
    p.set_defaults(fn=lambda args: _cmd_variation(args, 1))

    p = sub.add_parser("second-variation", help="closed-form second variation at a critical immersion")
    common(p, density=True, u=True)
    p.add_argument("--oracle", action="store_true", help="also run the deformation oracle")
    p.add_argument("--force", action="store_true", help="evaluate even if the surface is not critical")
    p.set_defaults(fn=lambda args: _cmd_variation(args, 2))

    p = sub.add_parser("el-residual", help="pointwise Euler-Lagrange residual")
    common(p, density=True)
    p.set_defaults(fn=_cmd_el_residual)

    p = sub.add_parser("verify-evolution", help="check one evolution equation by deformation")
    common(p, u=True)
    p.add_argument("--quantity", default="2H", help="evolving quantity, e.g. 2H (an unknown name lists them all)")
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

    parser.commands = sub.choices
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """The command line, with the values of a --config file, found by a first
    pass, parsed as flags placed before the typed ones: argparse checks
    their types and choices, a typed flag wins, and any flag can come from
    the file, a required one too."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:  # argv[0] is the subcommand: the top-level parser has no options but -h
        config = pre.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:  # a --config with no value: the full parse reports it
        config = None
    if config and argv[0] in parser.commands:
        try:
            with open(config) as fh:
                conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read --config file: {exc}")
        if not isinstance(conf, dict):
            raise ConfigError("--config must contain a JSON object")
        sub = parser.commands[argv[0]]
        actions = {a.dest: a for a in sub._actions if a.option_strings and a.dest not in ("help", "config")}
        flags = []
        for key, val in conf.items():
            action = actions.get(key.replace("-", "_"))
            if action is None:
                raise ConfigError(f"unknown config key '{key}'")
            if action.nargs != 0:
                flags.append(f"{action.option_strings[0]}={val}")
            elif isinstance(val, bool):  # a switch
                flags += [action.option_strings[0]] if val else []
            else:
                raise ConfigError(f"config key '{key}' takes true or false (got {val!r})")
        argv = argv[:1] + flags + argv[1:]
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
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
