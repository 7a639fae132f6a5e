"""Graphs, permutation groups and decision procedures for local
distance-transitivity of subdivision graphs."""

from .graphs import (
    INF,
    AnalysisReport,
    Graph,
    GraphError,
    SubdivisionMap,
    analyze,
    bfs_distances,
    diameter,
    distance2_components,
    girth,
    lift_group,
    lift_to_subdivision,
    line_graph,
    moore_bound,
    read_edge_list,
    sphere,
    subdivision,
    write_edge_list,
)
from .perms import (
    GroupError,
    Permutation,
    PermGroup,
    alternating_group,
    cyclic_group,
    dihedral_group,
    read_generators,
    symmetric_group,
    write_generators,
)
from .autgrp import (
    Coloring,
    LimitError,
    automorphism_group,
    isomorphism,
    refine,
    unit_coloring,
)
from .geometry import (
    GField,
    chamber_model_w32,
    complete,
    complete_bipartite,
    cycle,
    gf,
    hoffman_singleton,
    incidence_hexagon,
    incidence_pg2,
    incidence_w3,
    mobius_subgroups,
    pgammal2,
    petersen,
    petersen_s5,
)
from .checks import (
    ArcTransResult,
    LDTResult,
    cage_certificate,
    check_arc_transitive,
    check_local_sdt,
    complete_graph_criteria,
    condition_star,
    diameter_bounds_check,
)
from .harness import CaseSpec, verify_case, verify_table

__version__ = "0.1.0"
