"""nearhex: build and exhaustively verify the slim near hexagons that arise
from gluing two copies of the (2,2) generalized quadrangle."""

from .builders import (
    DebruynCensus,
    build_dsp62,
    build_h3_debruyn,
    build_h3,
    build_h3_partitions,
    debruyn_census,
)
from .geometry import (
    Geometry,
    GeometryError,
    Metrics,
    convex_closure,
    convex_closures,
    dual_geometry,
    induced_geometry,
    is_geometric_hyperplane,
    is_subspace,
    metrics,
    perp,
    validate_pls,
)
from .gq22 import (
    Triad,
    build_w2,
    complete_triad_through,
    enumerate_triads,
    incomplete_triad_subgq,
    is_gq,
)
from .iso import CanonicalForm, IsoVerdict, are_isomorphic, canonical_form, relabel
from .labels import Edge, OrderedPair, Pair, Partition, PrimedEdge
from .verify import (
    CaseReport,
    ParameterSummary,
    QuadRecord,
    check_np,
    dsp_case_analysis,
    enumerate_quads,
    h3_case_analysis,
    line_distance_profiles,
    parameters,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "CaseReport",
    "DebruynCensus",
    "Edge",
    "Geometry",
    "GeometryError",
    "IsoVerdict",
    "Metrics",
    "OrderedPair",
    "Pair",
    "ParameterSummary",
    "Partition",
    "PrimedEdge",
    "QuadRecord",
    "Triad",
    "are_isomorphic",
    "build_dsp62",
    "build_h3_debruyn",
    "build_h3",
    "build_h3_partitions",
    "build_w2",
    "canonical_form",
    "check_np",
    "complete_triad_through",
    "convex_closure",
    "convex_closures",
    "debruyn_census",
    "dsp_case_analysis",
    "dual_geometry",
    "enumerate_quads",
    "enumerate_triads",
    "h3_case_analysis",
    "incomplete_triad_subgq",
    "induced_geometry",
    "is_geometric_hyperplane",
    "is_gq",
    "is_subspace",
    "line_distance_profiles",
    "metrics",
    "parameters",
    "perp",
    "relabel",
    "validate_pls",
]
