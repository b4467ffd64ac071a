"""Spanning tree congestion toolkit.

Exact solvers (brute force, treewidth DP), parameterized solvers (feedback
edge set, clique modulator, vertex integrity), a (1+eps)-approximation,
hardness-instance generators with witness trees, and text formats for
graphs, tree decompositions and solutions.  `solve` reduces the graph to its
feedback-edge kernel, picks a solver from the kernel's structure, runs it
and re-measures the tree it returns.
"""
from .decomposition import NiceTreeDecomposition, TreeDecomposition, decompose, make_nice
from .dp import (
    WinWinResult,
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
from .formats import build_solution, parse_gr, parse_solution, verify_solution
from .graph import (
    CongestionReport,
    DoubleWeightedGraph,
    Graph,
    SpanningTree,
    congestion_report,
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
)
from .route import solve
from .structural import (
    ReductionTrace,
    lift_tree,
    reduce_graph,
    solve_dtc,
    solve_fes,
    solve_vi,
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
    "congestion_report",
    "count_spanning_trees",
    "decompose",
    "default_nice_decomposition",
    "enumerate_spanning_trees",
    "expand_double_weighted",
    "expand_single_weighted",
    "gen_3partition",
    "gen_bsat",
    "gen_grid",
    "gen_ubp",
    "lift_tree",
    "make_nice",
    "parse_gr",
    "parse_solution",
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
    "verify_solution",
    "witness_tree",
]
