"""regalg: exact-arithmetic toolkit for regular upper-triangular
subalgebras of sl(n) - brackets, closure, star-pattern calculus,
conjugacy invariants, permutation witnesses, and family enumeration."""

from .core import (
    DescriptorError,
    Diag,
    DimensionMismatchError,
    Nil,
    NotClosedError,
    RegularSubalgebra,
    bracket,
    closure_defect,
    dimension_bound,
    format_descriptor,
    full_cartan,
    full_nil_set,
    h_pq_vector,
    h_vector,
    is_closed,
    parse_descriptor,
    require_closed,
)
from .conjugacy import (
    ClassPartition,
    ConjugacyVerdict,
    classify_family,
    decide,
    permute_subalgebra,
)
from .families import FamilyLabel, enum_codim1, enum_codim2, enum_dim2, make_drc, recipe_witness
from .invariants import InvariantSignature, separate, signature

__all__ = [
    "ClassPartition",
    "ConjugacyVerdict",
    "DescriptorError",
    "Diag",
    "DimensionMismatchError",
    "FamilyLabel",
    "InvariantSignature",
    "Nil",
    "NotClosedError",
    "RegularSubalgebra",
    "bracket",
    "classify_family",
    "closure_defect",
    "decide",
    "dimension_bound",
    "enum_codim1",
    "enum_codim2",
    "enum_dim2",
    "format_descriptor",
    "full_cartan",
    "full_nil_set",
    "h_pq_vector",
    "h_vector",
    "is_closed",
    "make_drc",
    "recipe_witness",
    "parse_descriptor",
    "permute_subalgebra",
    "require_closed",
    "separate",
    "signature",
]

__version__ = "0.1.0"
