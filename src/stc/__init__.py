"""Spanning tree congestion toolkit.

Exact solvers (brute force, treewidth DP), parameterized solvers (feedback
edge set, clique modulator, vertex integrity), a (1+eps)-approximation,
hardness-instance generators with witness trees, and text formats for
graphs, tree decompositions and solutions.  `solve` picks a solver from the
graph's structure, runs it and re-measures the tree it returns.
"""
from .decomposition import (
    NiceTreeDecomposition,
    TreeDecomposition,
    decompose,
    make_nice,
    validate_nice,
    validate_td,
)
from .dp import (
    WinWinResult,
    check_approx_invariant,
    default_nice_decomposition,
    solve_approx_tw,
    solve_cw_winwin,
    solve_exact_tw,
    solve_stc_tw,
)
from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    FormatError,
    GraphError,
    InvalidCertificateError,
    InvalidDecompositionError,
    InvalidSpanningTreeError,
)
from .formats import (
    build_solution,
    parse_gr,
    parse_solution,
    parse_td,
    verify_solution,
    write_gr,
    write_td,
)
from .graph import (
    CongestionReport,
    DoubleWeightedGraph,
    Graph,
    SpanningTree,
    congestion_report,
    edge_key,
    find_biclique,
)
from .oracle import (
    EnumerationBudget,
    count_spanning_trees,
    enumerate_spanning_trees,
    stc_exact,
)
from .reductions import (
    InstanceBundle,
    expand_double_weighted,
    expand_single_weighted,
    gen_3partition,
    gen_bsat,
    gen_grid,
    gen_ubp,
    witness_tree,
    witness_tree_weighted,
)
from .route import solve
from .structural import (
    ReductionTrace,
    dtc_bound_tree,
    dtc_congestion_bound,
    fes_value,
    ilp_minimize_max,
    lift_tree,
    reduce_graph,
    reconstruct,
    solve_dtc,
    solve_fes,
    solve_vi,
    vertex_integrity_set,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CongestionReport",
    "DisconnectedGraphError",
    "DoubleWeightedGraph",
    "EnumerationBudget",
    "FormatError",
    "Graph",
    "GraphError",
    "InstanceBundle",
    "InvalidCertificateError",
    "InvalidDecompositionError",
    "InvalidSpanningTreeError",
    "NiceTreeDecomposition",
    "ReductionTrace",
    "SpanningTree",
    "TreeDecomposition",
    "WinWinResult",
    "build_solution",
    "check_approx_invariant",
    "congestion_report",
    "count_spanning_trees",
    "decompose",
    "default_nice_decomposition",
    "dtc_bound_tree",
    "dtc_congestion_bound",
    "edge_key",
    "enumerate_spanning_trees",
    "expand_double_weighted",
    "expand_single_weighted",
    "fes_value",
    "find_biclique",
    "gen_3partition",
    "gen_bsat",
    "gen_grid",
    "gen_ubp",
    "ilp_minimize_max",
    "lift_tree",
    "make_nice",
    "parse_gr",
    "parse_solution",
    "parse_td",
    "reconstruct",
    "reduce_graph",
    "solve",
    "solve_approx_tw",
    "solve_cw_winwin",
    "solve_dtc",
    "solve_exact_tw",
    "solve_fes",
    "solve_stc_tw",
    "solve_vi",
    "stc_exact",
    "validate_nice",
    "validate_td",
    "verify_solution",
    "vertex_integrity_set",
    "witness_tree",
    "witness_tree_weighted",
    "write_gr",
    "write_td",
]
