"""Brute-force oracle: enumerate all spanning trees, take the best.

Enumeration is the classic include/exclude recursion on a fixed edge order:
including an edge freezes out every edge that would now close a cycle,
excluding an edge forces the bridges of what remains.  Each spanning tree is
emitted exactly once, in an order determined entirely by the sorted edge list.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import BudgetExceededError
from .graph import (
    DoubleWeightedGraph,
    Edge,
    Graph,
    SpanningTree,
    _max_load,
    _split_weights,
    edge_key,
    require_connected,
)

DEFAULT_MAX_TREES = 2_000_000
DEFAULT_MAX_MILLIS = 120_000
# graphs this small go to full enumeration wherever a solver has the choice
ORACLE_CAP = 12


@dataclass(frozen=True)
class EnumerationBudget:
    max_trees: int = DEFAULT_MAX_TREES
    max_millis: int = DEFAULT_MAX_MILLIS


def _bridges(n: int, adj: dict[int, set[int]]) -> set[Edge]:
    """Bridges via lowpoint DFS, iterative; tolerates a disconnected adjacency."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    out: set[Edge] = set()
    clock = 0
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, nbrs = stack[-1]
            for u in nbrs:
                if u == parent:
                    continue
                if u in disc:
                    if disc[u] < low[v]:
                        low[v] = disc[u]
                else:
                    disc[u] = low[u] = clock
                    clock += 1
                    stack.append((u, v, iter(adj[u])))
                    break
            else:
                stack.pop()
                if parent >= 0:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > disc[parent]:
                        out.add(edge_key(parent, v))
    return out


def enumerate_spanning_trees(G: Graph, budget: EnumerationBudget | None = None):
    """Yield every spanning tree edge set (frozenset) of a connected graph.

    Raises BudgetExceededError (with .emitted) when either cap is hit.
    """
    require_connected(G)
    budget = budget or EnumerationBudget()
    deadline = time.monotonic() + budget.max_millis / 1000.0
    n = G.n
    emitted = 0

    def check(now_trees: int):
        if now_trees >= budget.max_trees:
            raise BudgetExceededError(
                f"tree cap {budget.max_trees} reached", emitted=now_trees
            )
        if time.monotonic() > deadline:
            raise BudgetExceededError(
                f"time cap {budget.max_millis} ms reached", emitted=now_trees
            )

    def components(part: frozenset[Edge]) -> list[int]:
        comp = list(range(n))

        def find(x):
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        for u, v in part:
            comp[find(u)] = find(v)
        return [find(v) for v in range(n)]

    def adj_of(edges) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    initial = frozenset(G.edges)
    forced = frozenset(_bridges(n, adj_of(initial)))
    stack = [(initial, forced)]
    while stack:
        check(emitted)
        avail, part = stack.pop()
        if len(part) == n - 1:
            emitted += 1
            yield part
            continue
        if avail == part:
            continue
        e = min(avail - part)
        # exclude e: the bridges of the remaining graph become forced
        rest = avail - {e}
        new_forced = _bridges(n, adj_of(rest)) | part
        stack.append((rest, frozenset(new_forced)))
        # include e: edges joining vertices already connected are frozen out
        part2 = part | {e}
        comp = components(part2)
        closing = {f for f in avail - part2 if comp[f[0]] == comp[f[1]]}
        stack.append((avail - closing, part2))


def count_spanning_trees(G: Graph, budget: EnumerationBudget | None = None) -> int:
    return sum(1 for _ in enumerate_spanning_trees(G, budget))


def stc_exact(G, budget: EnumerationBudget | None = None) -> tuple[int, SpanningTree]:
    """Exact spanning tree congestion by full enumeration.

    Ties break toward the first optimal tree in enumeration order.  Accepts a
    Graph or a DoubleWeightedGraph.
    """
    base, wt1, wt2 = _split_weights(G)
    if not isinstance(G, DoubleWeightedGraph):
        wt2 = None  # unit tree-edge weights: the maximum needs no per-edge pass
    require_connected(base)
    best: tuple[int, frozenset[Edge]] | None = None
    for tree in enumerate_spanning_trees(base, budget):
        c = _max_load(base, wt1, wt2, tree)
        if best is None or c < best[0]:
            best = (c, tree)
    assert best is not None
    return best[0], SpanningTree(base, best[1])
