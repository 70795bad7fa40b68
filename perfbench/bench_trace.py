"""Span tracing of curvevar, installed from outside the package.

``Tracer.install`` wraps every public function of each curvevar module in
every curvevar module that bound it (``deform_normal`` lives in both
``surface`` and ``variations``, for example), plus ``ScalarField.partial``,
``ChartDerivatives.partial``, ``SpaceForm.geodesic_step`` and
``sympy.lambdify``. Each call becomes a span with its name, layer, start,
end, parent span and op id. Spans stay in memory until ``dump``.
``uninstall`` restores every original binding.

``layer_metrics`` turns spans and counters into the per-layer metrics
listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from bench_stats import self_times

LAYERS = (
    "catalog",
    "surface",
    "spaceform",
    "curvature",
    "calculus",
    "gridops",
    "densities",
    "variations",
    "pwillmore",
    "cli",
)

# private helpers timed because a per-layer metric is defined on them
_PRIVATE = {"cli": ("_emit", "_field_rows")}
# public helpers left unwrapped so their time stays in their callers' self
# time: the stencil evaluations of numeric_jets are what
# surface.sample_callable.self_s and surface.deform_normal.self_s measure
_UNTIMED = {"surface.numeric_jets"}

# span record fields
NAME, LAYER, START, END, PARENT, OP, TAGS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = "setup"
        self.counts: Counter = Counter()
        self._restore: list = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name: str, layer, before=None, after=None):
        """Span-recording wrapper. ``layer`` may be a callable picking the
        layer when the call starts. ``before(args, kwargs)`` returns tags;
        ``after(tags, args, kwargs, out)`` runs on success."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tags = before(args, kwargs) if before is not None else {}
            lay = layer() if callable(layer) else layer
            rec = [name, lay, 0.0, 0.0, tracer.stack[-1] if tracer.stack else None, tracer.op, tags]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(tags, args, kwargs, out)
            return out

        return traced

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        """A root span measured by the caller (e.g. the import of curvevar)."""
        self.spans.append([name, layer, start, end, None, self.op, {}])

    def inside(self, name: str) -> bool:
        return any(self.spans[i][NAME] == name for i in self.stack)

    def counted_position_map(self, f, n_nodes: int):
        """Position map that counts its full-grid evaluations."""
        tracer = self

        def position_map(U, V):
            if np.size(U) == n_nodes:
                tracer.counts["position_evals"] += 1
                if tracer.inside("surface.deform_normal"):
                    tracer.counts["position_evals_in_deform"] += 1
            return f(U, V)

        return position_map

    # -- installation ------------------------------------------------------------

    def _set(self, obj, attr, value):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _lambdify_layer(self):
        if self.stack:
            return self.spans[self.stack[-1]][LAYER]
        # called outside any traced function: charge the calling module
        frame = sys._getframe(2)
        mod = frame.f_globals.get("__name__", "")
        layer = mod.rsplit(".", 1)[-1]
        return layer if mod.startswith("curvevar.") and layer in LAYERS else "bench"

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"curvevar.{layer}") for layer in LAYERS}
        hooks = self._hooks(mods)
        wrapped = {}
        for layer, mod in mods.items():
            for name, val in list(vars(mod).items()):
                if not inspect.isfunction(val) or val.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in _PRIVATE.get(layer, ()):
                    continue
                key = f"{layer}.{name}"
                if key in _UNTIMED:
                    continue
                wrapped[id(val)] = (val, self.wrap(val, key, layer, **hooks.get(key, {})))
        for modname, mod in list(sys.modules.items()):
            if modname != "curvevar" and not modname.startswith("curvevar."):
                continue
            for name, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, name, hit[1])

        calc, grid, sform = mods["calculus"], mods["gridops"], mods["spaceform"]
        self._set(
            calc.ScalarField,
            "partial",
            self.wrap(calc.ScalarField.partial, "calculus.ScalarField.partial", "calculus", **hooks["partial"]),
        )
        self._set(
            grid.ChartDerivatives,
            "partial",
            self.wrap(grid.ChartDerivatives.partial, "gridops.ChartDerivatives.partial", "gridops", **hooks["grid"]),
        )
        self._set(
            sform.SpaceForm,
            "geodesic_step",
            self.wrap(sform.SpaceForm.geodesic_step, "spaceform.SpaceForm.geodesic_step", "spaceform"),
        )
        import sympy

        self._set(sympy, "lambdify", self.wrap(sympy.lambdify, "sympy.lambdify", self._lambdify_layer))

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, val = self._restore.pop()
            setattr(obj, attr, val)

    def _hooks(self, mods) -> dict:
        catalog = mods["catalog"]

        def bundle_before(args, kwargs):
            return {"misses": catalog._bundle.cache_info().misses}

        def bundle_after(tags, args, kwargs, s):
            tags["miss"] = catalog._bundle.cache_info().misses > tags.pop("misses")
            s.position_map = self.counted_position_map(s.position_map, s.domain.nu * s.domain.nv)

        def cache_probe(key):
            def before(args, kwargs):
                sample = args[0] if args else kwargs["sample"]
                return {"hit": key in sample._cache}

            return before

        def partial_before(args, kwargs):
            field, a, b = args[0], args[1], args[2]
            return {
                "cached": (a, b) == (0, 0) or (a, b) in field._cache,
                "provider": "analytic" if field._partial_impl is not None else "grid",
            }

        def grid_after(tags, args, kwargs, out):
            tags["bytes"] = int(np.asarray(args[1]).nbytes + np.asarray(out).nbytes)

        return {
            "catalog.sample_builtin": {"before": bundle_before, "after": bundle_after},
            "curvature.fundamental_forms": {"before": cache_probe("forms")},
            "curvature.curvature_scalars": {"before": cache_probe("scalars")},
            "partial": {"before": partial_before},
            "grid": {"after": grid_after},
        }

    # -- output ----------------------------------------------------------------

    def as_dicts(self) -> list:
        keys = ("name", "layer", "start", "end", "parent", "op", "tags")
        return [dict(zip(keys, rec)) for rec in self.spans]

    def extend(self, spans: list, counts: dict, op: str) -> None:
        """Merge the spans of another process, re-indexing parents."""
        base = len(self.spans)
        for d in spans:
            parent = None if d["parent"] is None else base + d["parent"]
            self.spans.append([d["name"], d["layer"], d["start"], d["end"], parent, op, d["tags"]])
        self.counts.update(counts)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.as_dicts(), "counts": dict(self.counts)}, fh)


def span_cost_s(calls: int = 20000) -> float:
    """Time that tracing adds to one call, measured on a no-op function."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "noop", "bench")
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        traced()
    t2 = perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, counts: dict, wall_s: float) -> dict:
    """Per-layer metrics as {name: (value, unit)} from span records.

    ``wall_s`` is the traced wall time the spans fall inside; the layer
    self times plus ``trace.remainder_s`` add up to it.
    """
    st = self_times([(r[START], r[END], r[PARENT]) for r in spans])
    dur = [r[END] - r[START] for r in spans]

    def pick(name=None, pred=None):
        return [i for i, r in enumerate(spans) if (name is None or r[NAME] == name) and (pred is None or pred(r))]

    def self_sum(idx):
        return float(sum(st[i] for i in idx))

    def incl_sum(idx):
        return float(sum(dur[i] for i in idx))

    def under(i, name):
        p = spans[i][PARENT]
        while p is not None:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    builtin = pick("catalog.sample_builtin")
    misses = [i for i in builtin if spans[i][TAGS].get("miss")]
    hits = [i for i in builtin if not spans[i][TAGS].get("miss")]
    lambdify = pick("sympy.lambdify")
    partials = pick("calculus.ScalarField.partial", lambda r: not r[TAGS]["cached"])
    ff = pick("curvature.fundamental_forms")
    cs = pick("curvature.curvature_scalars")
    grid = pick("gridops.ChartDerivatives.partial")
    deform = pick("surface.deform_normal")
    el = pick("variations.el_residual")
    oracle_ops = pick("variations.fd_variation_oracle") + pick(
        "variations.evolution_check_many", lambda r: r[PARENT] is None or spans[r[PARENT]][NAME] != "variations.evolution_check"
    )
    harm = pick("pwillmore.harmonic_field")

    m = {
        "cli.import_s": (incl_sum(pick("cli.import")), "s"),
        "cli.emit_s": (incl_sum(pick("cli._emit") + pick("cli._field_rows")), "s"),
        "cli.main.self_s": (self_sum(pick("cli.main")), "s"),
        "catalog.bundle_build_s": (incl_sum(misses), "s"),
        "catalog.bundle_hits": (len(hits), "count"),
        "catalog.bundle_hit_ratio": (_ratio(len(hits), len(builtin)), "ratio"),
        "catalog.sample_builtin.self_s": (self_sum(hits), "s"),
        "densities.build_s": (incl_sum(pick("densities.density_from_expr")), "s"),
        "calculus.analytic_partial_s": (self_sum([i for i in partials if spans[i][TAGS]["provider"] == "analytic"]), "s"),
        "calculus.grid_partial_s": (incl_sum([i for i in partials if spans[i][TAGS]["provider"] == "grid"]), "s"),
        "calculus.laplace_beltrami.self_s": (self_sum(pick("calculus.laplace_beltrami")), "s"),
        "calculus.hessian.self_s": (self_sum(pick("calculus.hessian")), "s"),
        "calculus.integrate.calls": (len(pick("calculus.integrate")), "count"),
        "gridops.partial.calls": (len(grid), "count"),
        "gridops.partial.self_s": (self_sum(grid), "s"),
        "gridops.bytes_computed": (sum(spans[i][TAGS].get("bytes", 0) for i in grid), "B"),
        "curvature.fundamental_forms.calls": (len(ff), "count"),
        "curvature.fundamental_forms.self_s": (self_sum(ff), "s"),
        "curvature.fundamental_forms.hit_ratio": (_ratio(sum(spans[i][TAGS]["hit"] for i in ff), len(ff)), "ratio"),
        "curvature.curvature_scalars.self_s": (self_sum(cs), "s"),
        "curvature.curvature_scalars.hit_ratio": (_ratio(sum(spans[i][TAGS]["hit"] for i in cs), len(cs)), "ratio"),
        "surface.deform_normal.calls": (len(deform), "count"),
        "surface.deform_normal.self_s": (self_sum(deform), "s"),
        "surface.position_evals": (int(counts.get("position_evals", 0)), "count"),
        "surface.position_evals_per_deformed_sample": (
            _ratio(counts.get("position_evals_in_deform", 0), len(deform)),
            "count",
        ),
        "surface.sample_callable.self_s": (self_sum(pick("surface.sample_callable")), "s"),
        "spaceform.geodesic_step.self_s": (self_sum(pick("spaceform.SpaceForm.geodesic_step")), "s"),
        "variations.el_residual.calls": (len(el), "count"),
        "variations.el_residual.self_s": (self_sum(el), "s"),
        "variations.criticality_s": (incl_sum([i for i in el if under(i, "variations.second_variation")]), "s"),
        "variations.first_variation.self_s": (self_sum(pick("variations.first_variation")), "s"),
        "variations.fd_variation_oracle.self_s": (self_sum(pick("variations.fd_variation_oracle")), "s"),
        "variations.evolution_check_many.self_s": (self_sum(pick("variations.evolution_check_many")), "s"),
        "variations.deformed_samples_per_op": (_ratio(len(deform), len(oracle_ops)), "count"),
        "pwillmore.harmonic_field.calls": (len(harm), "count"),
        "pwillmore.harmonic_field.self_s": (self_sum(harm), "s"),
        "pwillmore.stability_report.self_s": (self_sum(pick("pwillmore.stability_report")), "s"),
    }
    for layer in ("catalog", "calculus", "densities", "pwillmore"):
        m[f"{layer}.lambdify_calls"] = (sum(1 for i in lambdify if spans[i][LAYER] == layer), "count")

    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, r in enumerate(spans):
        if r[LAYER] not in layer_self:
            raise ValueError(f"span {r[NAME]} has no curvevar layer ({r[LAYER]})")
        layer_self[r[LAYER]] += st[i]
    for layer, val in layer_self.items():
        m[f"{layer}.self_s"] = (val, "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.remainder_s"] = (wall_s - sum(layer_self.values()), "s")
    m["trace.spans"] = (len(spans), "count")
    return m
