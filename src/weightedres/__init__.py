"""Exact invariants, weighted centers and blowups for polynomial ideals.

The package computes, over the rationals and with exact arithmetic: the
multiorder invariant and canonical weighted center of an ideal at the
origin, staircase combinatorics of the admissible invariant tuples,
certificates of canonicity, weighted blowup charts with principalization
and embedded-resolution drivers, and tube algebras with their Rees
algebras.  Everything is pure and deterministic.
"""

from .blowup import (
    DriverStatus,
    PrincipalizationTrace,
    WeightedChart,
    build_charts,
    chart_grading_ok,
    controlled_transform,
    embedded_resolve,
    invariant_drop_check,
    minimal_root,
    principalize,
    rees_generators,
    strict_transform,
    transition_agrees,
)
from .centers import (
    CenterPresentation,
    CoordinateChange,
    LeadingTerm,
    is_admissible,
    leading_term_basis,
    leading_term_projection,
    nu_valuation,
    rounding,
)
from .errors import (
    AdmissibilityError,
    AmbientMismatchError,
    DomainError,
    InvalidMultiOrderError,
    ParseError,
    ResourceLimitError,
    WeightedResError,
)
from .invariant import (
    InvariantResult,
    MarkedIdealCollection,
    delta,
    maximal_contact,
    monomial_center_oracle,
    multiorder,
    reembedding_check,
)
from .lattice import (
    EQ,
    GT,
    LT,
    LatticeIdeal,
    MultiOrder,
    dominating_sequence,
    is_in_mord,
    mord_compare,
    split_gt1,
    witness_vectors,
)
from .poly import Polynomial, PolyIdeal
from .staircase import staircase
from .textio import parse_center, parse_ideal, parse_multiorder, parse_polynomial
from .tschirnhaus import (
    TschirnhausCertificate,
    make_tschirnhaus,
    verify_tschirnhaus,
)
from .tubes import (
    TubeAlgebra,
    center_from_tube,
    constant_tube,
    parameter_check,
    rees_restriction_check,
    tight_presentation_check,
    tube_center_correspondence,
    tubular_rees_piece,
    verify_split_tube,
    width,
)

__version__ = "0.1.0"
