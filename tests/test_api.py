import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvevar
from curvevar.densities import EnergyDensity

PACKAGE = Path(curvevar.__file__).resolve().parent

# the public API; a change here is a deliberate API change and needs a reason
PUBLIC_API = [
    "Model",
    "SpaceForm",
    "PatchDomain",
    "Provenance",
    "SurfaceSample",
    "deform_normal",
    "deform_normal_many",
    "sample_callable",
    "sample_builtin",
    "default_domain",
    "CurvatureScalars",
    "FundamentalForms",
    "codazzi_residual",
    "curvature_scalars",
    "fundamental_forms",
    "intrinsic_gauss_curvature",
    "AmbientPolyField",
    "ScalarField",
    "area",
    "curvature_field",
    "export_field_csv",
    "gradient",
    "hessian",
    "import_field_csv",
    "integrate",
    "laplace_beltrami",
    "random_smooth_field",
    "BUILTIN_DENSITIES",
    "EnergyDensity",
    "builtin_density",
    "density_from_expr",
    "VariationReport",
    "el_residual",
    "evolution_check",
    "evolution_check_many",
    "fd_variation_oracle",
    "fd_variation_oracle_many",
    "first_variation",
    "functional_value",
    "second_variation",
    "volume_functional",
    "PWillmoreSetting",
    "StabilityReport",
    "coercivity_bound",
    "harmonic_field",
    "harmonic_project",
    "poincare_check",
    "random_span_field",
    "sphere_index_form",
    "sphere_spectrum",
    "stability_report",
    "volume_variations",
    "CurveVarError",
    "ConfigError",
    "DegenerateMetricError",
    "GuardViolation",
    "NotCriticalError",
    "NotTangentError",
]


def test_public_api_is_pinned():
    """The names are exported lazily: each resolves on first read to the
    very object its defining module holds, dir() lists them, an unknown
    name is an AttributeError, and ``import curvevar`` imports no numpy."""
    assert curvevar.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        module = importlib.import_module(f"curvevar.{curvevar._EXPORTS[name]}")
        assert getattr(curvevar, name) is getattr(module, name), name
        assert getattr(getattr(module, name), "__module__", module.__name__) == module.__name__, name
    assert set(PUBLIC_API) <= set(dir(curvevar))
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        curvevar.not_a_name
    code = "import sys, curvevar\nassert 'numpy' not in sys.modules, sorted(sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# the only functions that take allow_open; it stays while perfbench passes
# it (ROADMAP item 8)
OPEN_CHART_OPTION = {
    ("variations", "fd_variation_oracle"),
    ("variations", "fd_variation_oracle_many"),
    ("variations", "_oracle_core"),
}


def _parameters(source: str):
    """(function name, parameter name) for every def and lambda in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None:
                    yield getattr(node, "name", "<lambda>"), arg.arg


def test_open_charts_need_no_option():
    """Integrals, energies and both variations hold on open charts without
    an option: in src/curvevar only the three oracle functions take
    allow_open, one check reads it, and sample_builtin takes no sf (its
    space form is the one its parameters give)."""
    takes, checks = set(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        takes |= {(path.stem, fn) for fn, arg in _parameters(source) if arg == "allow_open"}
        assert ("sample_builtin", "sf") not in set(_parameters(source)), path.stem
        ifs = (node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.If))
        checks += sum("allow_open" in ast.unparse(node.test) for node in ifs)
    assert takes == OPEN_CHART_OPTION
    assert checks == 1


def _callers(tree: ast.AST, name: str) -> list:
    """The qualified name of the def or class around each call of ``name``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call) and name in (getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append(".".join(scope))
            visit(child, inner)

    visit(tree, ())
    return found


def test_sympy_has_two_entry_points():
    """Sympy is imported in densities alone, and the one parser of user
    expressions, ``_sympy_partials``, serves exactly two entry points:
    density expressions and chart-field expressions."""
    importers, callers = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "sympy" for m in modules):
                importers.add(path.stem)
        callers |= {(path.stem, where) for where in _callers(tree, "_sympy_partials")}
    assert importers == {"densities"}
    assert callers == {("densities", "density_from_expr"), ("calculus", "ScalarField.from_expr")}


def _readers(package: Path, names: set) -> set:
    """The modules that read one of ``names`` off an object, as an
    attribute or by getattr with the name. Keyword arguments of a call
    (PatchDomain(periodic_u=...)) are not reads."""
    readers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in names or isinstance(node, ast.Constant) and node.value in names:
                readers.add(path.stem)
    return readers


def test_axis_kinds_are_read_in_surface_alone():
    """``PatchDomain.axes`` alone turns the chart flags into per-axis
    kinds; every other module reads nodes, spacing, FFT geometry and
    quadrature weights from those axes."""
    assert _readers(PACKAGE, {"periodic_u", "periodic_v", "pole_offset"}) == {"surface"}


def test_a_density_is_one_table_of_partials():
    """A density is its name, one table of partials by order (i, j) and
    an optional guard, and only ``densities`` reads the table: every
    other module asks ``EnergyDensity.guarded`` for the orders it needs."""
    assert [f.name for f in dataclasses.fields(EnergyDensity)] == ["name", "partials", "domain_guard"]
    assert _readers(PACKAGE, {"partials"}) == {"densities"}


def test_an_evolving_quantity_is_one_table_entry():
    """An evolving quantity's closed form, its measure on a sample and its
    need for f are one entry of ``variations._EVOLUTION``: each name is
    spelled once in ``variations``, as its key. ("2H" and "K" are also
    ``evolution_check``'s default and a curvature field's name.)"""
    names = ("g", "g_inv", "dS", "laplacian_f", "h_hess_f")
    tree = ast.parse((PACKAGE / "variations.py").read_text())
    spelled = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value in names]
    assert sorted(spelled) == sorted(names)
    from curvevar.variations import _EVOLUTION, _EVOLUTION_QUANTITIES, _NEEDS_F

    assert set(names) <= set(_EVOLUTION) and _EVOLUTION_QUANTITIES == tuple(_EVOLUTION)
    assert _NEEDS_F == ("laplacian_f", "h_hess_f")


def test_a_catalog_chart_is_one_table_entry():
    """A chart's parameters with their defaults, its domain, its space
    form, its condition and its terms are one entry of
    ``catalog._CHARTS``: each name is spelled once in ``catalog``, as its
    key."""
    from curvevar.catalog import _CHARTS, CATALOG_NAMES

    tree = ast.parse((PACKAGE / "catalog.py").read_text())
    spelled = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value in CATALOG_NAMES]
    assert sorted(spelled) == sorted(CATALOG_NAMES)
    assert CATALOG_NAMES == tuple(_CHARTS)


@pytest.mark.parametrize(
    "name,params",
    [
        ("cylinder", {}),
        ("sphere", {"R": 1}),
        ("torus", {"a": "x"}),
        ("catenoid", {"s_max": float("nan")}),
        ("graph", {"coeffs": [1.0]}),
        ("graph", {"coeffs": {(2, 0): float("inf")}}),
        ("clifford_torus_S3", {"a": 1.0}),
    ],
)
def test_default_domain_refuses_what_sample_builtin_refuses(name, params):
    """``default_domain`` checks the name and the parameters as
    ``sample_builtin`` does, with the same message: it used to return a
    domain for a key the chart does not take, and a NaN ``s_max`` reached
    ``PatchDomain`` as a NaN range."""
    from curvevar.errors import ConfigError

    with pytest.raises(ConfigError) as built:
        curvevar.sample_builtin(name, params)
    with pytest.raises(ConfigError) as domain:
        curvevar.default_domain(name, params)
    assert str(domain.value) == str(built.value)


def test_one_rule_builds_every_variation_report():
    """An integral's oracle check and a per-node evolution check are
    reported by one rule: ``variations._report`` alone constructs a
    ``VariationReport``."""
    builders = set()
    for path in PACKAGE.glob("*.py"):
        builders |= {(path.stem, where) for where in _callers(ast.parse(path.read_text()), "VariationReport")}
    assert builders == {("variations", "_report")}


def test_two_stencil_builders_call_fd_weights():
    """Finite-difference weights are taken in two places: the banded
    matrices along an open chart axis and the 7-point jet stencil of a
    position map on an open chart."""
    callers = set()
    for path in PACKAGE.glob("*.py"):
        callers |= {(path.stem, where) for where in _callers(ast.parse(path.read_text()), "fd_weights")}
    assert callers == {("gridops", "fd_matrix"), ("surface", "_stencil_jets")}
