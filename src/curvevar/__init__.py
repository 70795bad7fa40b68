"""Curvature functionals on surfaces immersed in 3-D space forms.

Evaluates general energies of the form integral E(H, K) dS, their first
and second variations, and the p-Willmore sphere stability analysis, with
finite-difference deformation oracles for every closed-form expression.

Each public name is imported from its module on first use (PEP 562), so
``import curvevar`` loads neither numpy nor any numeric layer.
"""

from importlib import import_module

# public name -> the module that defines it, in the order of __all__
_EXPORTS = {
    "Model": "spaceform",
    "SpaceForm": "spaceform",
    "PatchDomain": "surface",
    "Provenance": "surface",
    "SurfaceSample": "surface",
    "deform_normal": "surface",
    "deform_normal_many": "surface",
    "sample_callable": "surface",
    "sample_builtin": "catalog",
    "default_domain": "catalog",
    "CurvatureScalars": "curvature",
    "FundamentalForms": "curvature",
    "codazzi_residual": "curvature",
    "curvature_scalars": "curvature",
    "fundamental_forms": "curvature",
    "intrinsic_gauss_curvature": "curvature",
    "AmbientPolyField": "calculus",
    "ScalarField": "calculus",
    "area": "calculus",
    "curvature_field": "calculus",
    "export_field_csv": "calculus",
    "gradient": "calculus",
    "hessian": "calculus",
    "import_field_csv": "calculus",
    "integrate": "calculus",
    "laplace_beltrami": "calculus",
    "random_smooth_field": "calculus",
    "BUILTIN_DENSITIES": "densities",
    "EnergyDensity": "densities",
    "builtin_density": "densities",
    "density_from_expr": "densities",
    "VariationReport": "variations",
    "el_residual": "variations",
    "evolution_check": "variations",
    "evolution_check_many": "variations",
    "fd_variation_oracle": "variations",
    "fd_variation_oracle_many": "variations",
    "first_variation": "variations",
    "functional_value": "variations",
    "second_variation": "variations",
    "volume_functional": "variations",
    "PWillmoreSetting": "pwillmore",
    "StabilityReport": "pwillmore",
    "coercivity_bound": "pwillmore",
    "harmonic_field": "pwillmore",
    "harmonic_project": "pwillmore",
    "poincare_check": "pwillmore",
    "random_span_field": "pwillmore",
    "sphere_index_form": "pwillmore",
    "sphere_spectrum": "spectrum",
    "stability_report": "pwillmore",
    "volume_variations": "variations",
    "CurveVarError": "errors",
    "ConfigError": "errors",
    "DegenerateMetricError": "errors",
    "GuardViolation": "errors",
    "NotCriticalError": "errors",
    "NotTangentError": "errors",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import the module that defines a public name, and keep the name in
    the package namespace so later reads find it directly."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
