"""Parameterized solvers: feedback edge number, distance to clique, vertex
integrity."""

from .fes import ReductionTrace, fes_value, lift_tree, reduce_graph, solve_fes
from .dtc import small_case_threshold, solve_dtc
from .vi import (
    ComponentType,
    ForestType,
    Signature,
    enumerate_types,
    ilp_minimize_max,
    solve_vi,
    tree_from_signature,
)

__all__ = [
    "ComponentType",
    "ForestType",
    "ReductionTrace",
    "Signature",
    "enumerate_types",
    "fes_value",
    "ilp_minimize_max",
    "lift_tree",
    "reduce_graph",
    "small_case_threshold",
    "solve_dtc",
    "solve_fes",
    "solve_vi",
    "tree_from_signature",
]
