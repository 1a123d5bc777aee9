"""Exact Gevrey-series solutions and irregularity data for hypergeometric
systems of affine monomial curves.

The engine submodules are registered in sys.modules when the package is
imported, but each one's body runs only on first attribute access, so a
command compiles and runs only the modules it uses.  `import gkzcurve.<m>`,
`from gkzcurve.<m> import name` and every package-level name below work as
for eager modules.
"""

import importlib.util
import sys

# home module of every package-level name
_EXPORTS = {
    "basis": (
        "BasisMember",
        "polynomial_exponent_index",
        "solution_basis",
        "verify_basis",
    ),
    "core": (
        "CurveError",
        "CurveMatrix",
        "GcdNotOneError",
        "NotIncreasingError",
        "PointClass",
        "TooShortError",
        "make_curve",
        "slope",
    ),
    "curves": (
        "LatticeBasis",
        "lattice_basis",
        "lattice_decompose",
    ),
    "exponents": (
        "ExponentVector",
        "generic_exponents",
        "negative_support",
        "singular_exponents",
    ),
    "gevrey": (
        "gevrey_index_estimate",
        "slope_subseries",
    ),
    "irregularity": (
        "DimensionAnswer",
        "SheafKind",
        "SheafTag",
        "stratum_dimension_table",
        "dimension_table_diff",
        "reference_dimension_table",
        "irregularity_dimension",
        "monodromy_rotations",
    ),
    "operators": (
        "WeylOperator",
        "box_operator",
        "euler_operator",
        "toric_generators",
    ),
    "restriction": (
        "BFunction",
        "Caveat",
        "ModuleDescriptor",
        "UnsupportedShapeError",
        "WeightTag",
        "auxiliary_restriction",
        "b_function",
        "generic_rank",
        "restrict_first_variable",
        "restrict_hyperplane",
        "restrict_to_plane",
    ),
    "semigroup": (
        "BetaClass",
        "BetaClassification",
        "DeltaExponent",
        "SemigroupTable",
        "beta_class",
        "delta_exponents",
        "frobenius_number",
        "semigroup_gaps",
        "semigroup_member",
        "semigroup_table",
    ),
    "series": (
        "FormalSeries",
        "gamma_series",
        "inverse_contiguity",
    ),
    "series_io": (
        "exponent_series",
        "series_from_json",
        "substitute_x0",
        "witness_series",
    ),
    "weyl": (
        "AnnihilationReport",
        "annihilation_report",
        "apply",
        "named_generators",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def _lazy_module(name):
    """Register the submodule in sys.modules; its body runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


globals().update({name: _lazy_module(name) for name in _EXPORTS})


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
