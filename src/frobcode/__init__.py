"""Finite Frobenius rings, exact homogeneous weights, two-weight codes,
and the graphs and difference sets they certify."""

from .codes import (
    CodeFile,
    LinearCode,
    TwoWeightProfile,
    build_code,
    format_code_file,
    modular_index,
    parse_code_file,
    two_weight_profile,
)
from .duality import DualReport, dual_pipeline
from .errors import (
    CapExceededError,
    CharacterError,
    FrobcodeError,
    IdentityCheckError,
    PreconditionError,
    ReduciblePolynomialError,
    RingConstructionError,
    SpecParseError,
    ZeroColumnError,
)
from .graphs import (
    CosetGraph,
    EquivalenceReport,
    PdsCertificate,
    SrgParams,
    build_coset_graph,
    coset_graph_srg,
    equivalence_check,
    measure_srg,
    pds_check,
    predicted_dual_srg,
    predicted_srg,
)
from .homweight import WeightTable, identity_suite, weight_table
from .rings import (
    FiniteRing,
    GeneratingCharacter,
    build_ring,
    opposite_ring,
    parse_ring_spec,
    ring_from_text,
)
from .search import PointInfo, SearchRecord, generator_for_record, \
    projective_points, search_modular_codes
from .spans import row_space, span

__version__ = "0.1.0"

__all__ = [
    "CapExceededError", "CharacterError", "CodeFile", "CosetGraph",
    "DualReport", "EquivalenceReport", "FiniteRing", "FrobcodeError",
    "GeneratingCharacter", "IdentityCheckError", "LinearCode",
    "PdsCertificate", "PointInfo", "PreconditionError",
    "ReduciblePolynomialError", "RingConstructionError", "SearchRecord",
    "SpecParseError", "SrgParams", "TwoWeightProfile", "WeightTable",
    "ZeroColumnError", "build_code", "build_coset_graph", "build_ring",
    "coset_graph_srg", "dual_pipeline", "equivalence_check",
    "format_code_file", "generator_for_record", "identity_suite",
    "measure_srg", "modular_index", "opposite_ring", "parse_code_file",
    "parse_ring_spec", "pds_check", "predicted_dual_srg", "predicted_srg",
    "projective_points", "ring_from_text", "row_space",
    "search_modular_codes", "span", "two_weight_profile", "weight_table",
]
