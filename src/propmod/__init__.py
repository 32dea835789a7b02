"""Proportionally modular affine semigroups over the nonnegative integers.

A modular inequality f(x) mod b <= g(x) with integer data selects the set
S of nonnegative integer points satisfying it; S is closed under addition.
This package computes minimal generating sets, Frobenius vectors, Apery
sets and ring-theoretic properties of S with exact integer arithmetic,
plus brute-force oracles for cross-checking on finite windows.
"""

from .core import (
    CapExceeded,
    DimensionMismatch,
    GeneratorSet,
    InvalidInequality,
    ModularInequality,
    SemigroupError,
    UnsupportedCase,
    inequality_from_json,
    inequality_to_json,
    minimal_points,
    normalize,
    sort_points,
)
from .diophantine import (
    DiophSystem,
    MinimalSolutionSet,
    cone_hilbert_basis,
    minimal_solutions,
)
from .frobenius import FrobeniusReport, definition_check, frobenius_vectors
from .general import ConstructionTrace, construction_trace, minimal_generators_general
from .oracle import (
    MarginError,
    Window,
    brute_members,
    brute_min_frobenius,
    closure_in_window,
)
from .plane import minimal_generators
from .properties import (
    AperyData,
    PropertyReport,
    apery_intersection,
    is_buchsbaum,
    is_cohen_macaulay,
    is_gorenstein,
    property_report,
)
from .rays import StripGeometry, period_vector, restrict_to_ray, strip_geometry

__version__ = "0.1.0"

__all__ = [
    "AperyData",
    "CapExceeded",
    "ConstructionTrace",
    "DimensionMismatch",
    "DiophSystem",
    "FrobeniusReport",
    "GeneratorSet",
    "InvalidInequality",
    "MarginError",
    "MinimalSolutionSet",
    "ModularInequality",
    "PropertyReport",
    "SemigroupError",
    "StripGeometry",
    "UnsupportedCase",
    "Window",
    "apery_intersection",
    "brute_members",
    "brute_min_frobenius",
    "closure_in_window",
    "cone_hilbert_basis",
    "construction_trace",
    "definition_check",
    "frobenius_vectors",
    "inequality_from_json",
    "inequality_to_json",
    "is_buchsbaum",
    "is_cohen_macaulay",
    "is_gorenstein",
    "minimal_generators",
    "minimal_generators_general",
    "minimal_points",
    "minimal_solutions",
    "normalize",
    "period_vector",
    "property_report",
    "restrict_to_ray",
    "sort_points",
    "strip_geometry",
]
