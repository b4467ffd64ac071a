"""One entry point: pick a solver from the graph's structure, run it, re-measure.

Auto routing kernelizes first (leaf peeling and chain compression leave stc
unchanged), then answers trees and cycles directly, answers a small kernel
by the search over k with the vertex-subset step, and gives a larger one to
the clique (dtc) or vertex-integrity (vi) solver on the input when a
modulator is given, else to the search over k of the treewidth DP.
"""
from __future__ import annotations

import itertools

from .bounds import ORACLE_CAP, lower_bound
from .dp import solve_exact_tw, solve_stc_tw
from .errors import GraphError
from .graph import DoubleWeightedGraph, Graph, SpanningTree, congestion_report, require_connected
from .oracle import EnumerationBudget, stc_exact
from .structural import reduce_graph, small_case_threshold, solve_dtc, solve_vi
from .structural.fes import solve_reduced
from .structural.vi import checked_modulator

ALGORITHMS = ("auto", "oracle", "dp", "dtc", "vi")


def _auto(G: Graph, S: frozenset[int] | None) -> tuple[str, int, SpanningTree]:
    core, trace = reduce_graph(G)
    if S is not None and trace.kind == "kernel" and core.n > ORACLE_CAP:
        rest = [v for v in range(G.n) if v not in S]
        if not all(G.has_edge(u, v) for u, v in itertools.combinations(rest, 2)):
            return ("vi", *solve_vi(G, S))
        if len(rest) > small_case_threshold(len(S)):
            return ("dtc", *solve_dtc(G, S))
        # below the threshold solve_dtc would solve this same kernel
    return solve_reduced(core, trace)


def solve(
    G,
    k: int | None = None,
    modulator=None,
    alg: str = "auto",
    budget: EnumerationBudget | None = None,
) -> tuple[str, int | None, SpanningTree | None]:
    """Exact spanning tree congestion; returns (algorithm, congestion, tree).

    alg="auto" reduces G to its fes kernel once; a kernel of more than
    ORACLE_CAP vertices goes to dtc or vi on G when a modulator is given
    (dtc when G minus the modulator is a clique), and everything else to
    `solve_reduced`.  alg="oracle" enumerates G itself and alg="dp" runs the
    DP on G.  The returned algorithm names the route taken.

    Every route but one returns an optimal tree and ignores k.  With
    alg="dp" and a given k, solve decides stc <= k instead, as the paper's
    Win/Win does: a lower bound lambda > k (stc.bounds) refutes k before any
    DP run, and otherwise the DP decides.  The tree then has congestion
    <= k, and congestion and tree are None when k is refuted.
    The budget caps alg="oracle"'s enumeration alone.  A
    DoubleWeightedGraph is accepted only with alg="oracle".  A modulator
    vertex outside 0..n-1 raises GraphError on every route.
    """
    if alg not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {alg!r}")
    if isinstance(G, DoubleWeightedGraph) and alg != "oracle":
        raise GraphError(
            "a weighted graph needs the oracle; expand the weights first or use `oracle`"
        )
    if alg in ("dtc", "vi") and modulator is None:
        raise ValueError(f"alg={alg!r} needs a modulator")
    S = None if modulator is None else checked_modulator(G, modulator)

    kstar: int | None = None
    if alg == "auto":
        alg, kstar, tree = _auto(G, S)
    elif alg == "oracle":
        kstar, tree = stc_exact(G, budget)
    elif alg == "dtc":
        kstar, tree = solve_dtc(G, S)
    elif alg == "vi":
        kstar, tree = solve_vi(G, S)
    elif k is not None:
        if k < 1:
            raise ValueError("k must be >= 1")
        # connectivity first: the minimum degree of a disconnected graph
        # would otherwise "refute" k
        require_connected(G)
        tree = None if lower_bound(G, k + 1) > k else solve_exact_tw(G, k)
        if tree is None:
            return alg, None, None
    else:
        kstar, tree = solve_stc_tw(G)

    got = congestion_report(G, tree).max_congestion
    if (got > k) if kstar is None else (got != kstar):
        claim = f"<= {k}" if kstar is None else kstar
        raise AssertionError(f"{alg} returned k {claim} but the tree evaluates to {got}")
    return alg, got, tree
