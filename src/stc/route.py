"""One entry point: pick a solver from the graph's structure, run it, re-measure.

The routing follows the parameters the solvers are efficient in: trees and
cycles are answered directly, small graphs are enumerated, graphs with few
feedback edges go to the kernel, a modulator selects the clique (dtc) or
vertex-integrity (vi) solver, and everything else goes to the treewidth DP.
"""
from __future__ import annotations

from .dp import solve_exact_tw, solve_stc_tw
from .errors import GraphError
from .graph import DoubleWeightedGraph, Graph, SpanningTree, congestion_report
from .oracle import ORACLE_CAP, EnumerationBudget, stc_exact
from .structural import fes_value, solve_dtc, solve_fes, solve_vi

ALGORITHMS = ("auto", "oracle", "dp", "fes", "dtc", "vi")
FES_CAP = 12  # auto: kernel enumeration at or below this feedback edge count


def _is_cycle(G: Graph) -> bool:
    return G.n >= 3 and G.m == G.n and all(G.degree(v) == 2 for v in range(G.n))


def _route(G: Graph, S: frozenset[int] | None, oracle_cap: int, fes_cap: int) -> str:
    if G.is_tree():
        return "trivial"
    if _is_cycle(G):
        return "cycle"
    if G.n <= oracle_cap:
        return "oracle"
    if fes_value(G) <= fes_cap:
        return "fes"
    if S is not None:
        rest = sorted(set(range(G.n)) - S)
        clique = all(
            G.has_edge(rest[i], rest[j])
            for i in range(len(rest))
            for j in range(i + 1, len(rest))
        )
        return "dtc" if clique else "vi"
    return "dp"


def solve(
    G,
    k: int | None = None,
    modulator=None,
    alg: str = "auto",
    budget: EnumerationBudget | None = None,
    oracle_cap: int = ORACLE_CAP,
    fes_cap: int = FES_CAP,
) -> tuple[str, int | None, SpanningTree | None]:
    """Exact spanning tree congestion; returns (algorithm, congestion, tree).

    alg="auto" answers trees (congestion 1) and cycles (2) directly, then
    enumerates when n <= oracle_cap, takes the fes kernel when the feedback
    edge number is <= fes_cap, takes dtc or vi when a modulator is given
    (dtc when G minus the modulator is a clique), and the treewidth DP
    otherwise.  The returned algorithm names the route taken.

    Every route but one returns an optimal tree and ignores k.  With
    alg="dp" and a given k the DP decides stc <= k instead: the tree then has
    congestion <= k, and congestion and tree are None when k is refuted.
    The budget caps the oracle and fes enumerations.  A DoubleWeightedGraph
    is accepted only with alg="oracle".
    """
    if alg not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {alg!r}")
    if isinstance(G, DoubleWeightedGraph) and alg != "oracle":
        raise GraphError(
            "a weighted graph needs the oracle; expand the weights first or use `oracle`"
        )
    if alg in ("dtc", "vi") and modulator is None:
        raise ValueError(f"alg={alg!r} needs a modulator")
    S = None if modulator is None else frozenset(modulator)
    if alg == "auto":
        alg = _route(G, S, oracle_cap, fes_cap)

    kstar: int | None = None
    if alg == "trivial":
        kstar, tree = (1 if G.n > 1 else 0), SpanningTree(G, G.edges)
    elif alg == "cycle":
        kstar, tree = 2, SpanningTree(G, G.edges - {max(G.edges)})
    elif alg == "oracle":
        kstar, tree = stc_exact(G, budget)
    elif alg == "fes":
        kstar, tree = solve_fes(G, budget)
    elif alg == "dtc":
        kstar, tree = solve_dtc(G, S)
    elif alg == "vi":
        kstar, tree = solve_vi(G, S)
    elif k is not None:
        tree = solve_exact_tw(G, k)
        if tree is None:
            return alg, None, None
    else:
        kstar, tree = solve_stc_tw(G)

    got = congestion_report(G, tree).max_congestion
    if (got > k) if kstar is None else (got != kstar):
        claim = f"<= {k}" if kstar is None else kstar
        raise AssertionError(f"{alg} returned k {claim} but the tree evaluates to {got}")
    return alg, got, tree
