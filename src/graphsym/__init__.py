"""graphsym: color refinement, amenable-graph recognition, and symmetry numbers."""

from .amenability import AmenabilityVerdict, IsoVerdict, amenable_iso, check_amenable
from .cells import (
    AnisotropicForest,
    CellGraph,
    CellKind,
    Component,
    PairKind,
    anisotropic_components,
    build_cell_graph,
)
from .graph import (
    Graph,
    complement,
    disjoint_union,
    from_edge_list,
    induced_subgraph,
    relabel,
    validate_graph,
)
from .formats import (
    ParseReport,
    decode_graph6,
    encode_graph6,
    format_edge_list,
    parse_edge_list,
)
from .refinement import (
    CrOutcome,
    CrVerdict,
    Partition,
    cr_iso_test,
    is_equitable,
    refine,
    stable_partition,
)
from .symmetry import (
    CellTree,
    HeadKind,
    HeadShape,
    SaturatingCount,
    SymmetryReport,
    analyze,
    component_report,
    dist_number,
    fix_number,
    head_invariants,
    head_of_component,
    leg_dist_count,
    leg_fix,
    min_c_binom,
)
from . import errors, generators, oracle

__all__ = [
    "AmenabilityVerdict", "IsoVerdict", "amenable_iso", "check_amenable",
    "AnisotropicForest", "CellGraph", "CellKind", "Component", "PairKind",
    "anisotropic_components", "build_cell_graph",
    "Graph", "complement", "disjoint_union", "from_edge_list",
    "induced_subgraph", "relabel", "validate_graph",
    "ParseReport", "decode_graph6", "encode_graph6", "format_edge_list",
    "parse_edge_list",
    "CrOutcome", "CrVerdict", "Partition", "cr_iso_test", "is_equitable",
    "refine", "stable_partition",
    "CellTree", "HeadKind", "HeadShape", "SaturatingCount", "SymmetryReport",
    "analyze", "component_report", "dist_number", "fix_number",
    "head_invariants", "head_of_component", "leg_dist_count", "leg_fix",
    "min_c_binom",
    "errors", "generators", "oracle",
]
