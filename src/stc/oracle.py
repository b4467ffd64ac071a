"""Brute-force oracle: enumerate spanning trees, take the best.

Enumeration is the classic include/exclude recursion on a fixed edge order.
A search node (avail, part), with part inside avail, yields every spanning
tree T with part <= T <= avail.  Including an edge freezes out every edge
that would now close a cycle; excluding an edge forces the bridges of what
remains, found when that node is popped.  Each spanning tree is emitted
exactly once, in an order determined entirely by the sorted edge list.

Every bridge of avail lies in part, so an excluded edge is never a bridge
and avail stays connected.  At the root part is the bridges of G, and an
exclude child forces the bridges of its own avail.  An include step removes
only edges f whose ends part already joins, and removing f makes a bridge
only of an edge on every remaining path between f's ends: one in part.

Branch and bound (`stc_exact`).  After each tree the consumer sends its best
congestion b into the search.  A node that runs the bridge search is skipped
when some bridge e of its avail has cut load >= b, where the cut load of e
with side Y is wt2(e) plus wt1(f) summed over the edges f != e of G that
leave Y (|delta_G(Y)| on unit weights).  Soundness:

- every tree T that the node yields satisfies part <= T <= avail;
- e lies in T, and the two components of T - e are exactly the two sides of
  avail - e, so e's congestion in T is its cut load: the node fixes it;
- if that load is >= b, no tree of the node beats the best so far.
  `stc_exact` keeps a tree only when it is strictly better, so the scan
  still reaches the first tree of each strictly lower value and returns the
  full scan's first optimal tree, on weighted input too;
- a node whose avail is disconnected yields no tree, so skipping it would
  always be sound (by the invariant above there is none);
- the check runs when the node is popped, against the best at that moment;
  the bound only falls, so this is sound and cuts at least as much as a
  check when the node is pushed.

The DFS forest of the bridge search is a spanning tree of avail; by the
second point its congestion on a bridge is that bridge's cut load, so the
congestion evaluator prices all bridges in one pass.
`enumerate_spanning_trees` and `count_spanning_trees` run the same search
with no bound and do no cut work.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .bounds import lower_bound
from .errors import BudgetExceededError
from .graph import (
    DoubleWeightedGraph,
    Edge,
    Graph,
    SpanningTree,
    _max_load,
    _vertex_loads,
    edge_key,
    require_connected,
)

DEFAULT_MAX_TREES = 2_000_000
DEFAULT_MAX_MILLIS = 120_000


@dataclass(frozen=True)
class EnumerationBudget:
    max_trees: int = DEFAULT_MAX_TREES
    max_millis: int = DEFAULT_MAX_MILLIS


def _bridges(n: int, adj: dict[int, set[int]], tree: set[Edge] | None = None) -> set[Edge]:
    """Bridges via lowpoint DFS, iterative; tolerates a disconnected adjacency.

    With a set `tree`, also adds the edges of the DFS forest to it.
    """
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
                    if tree is not None:
                        tree.add(edge_key(v, u))
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


def _search(G: Graph, budget: EnumerationBudget | None, wt1=None, wt2=None):
    """The include/exclude search over the spanning trees of G (a generator).

    A value sent back after a tree is taken as the bound of the module
    docstring, with cut loads priced by wt1 and wt2 (None weighs every edge
    1).  Raises BudgetExceededError (with .emitted) when either cap is hit.
    """
    require_connected(G)
    budget = budget or EnumerationBudget()
    deadline = time.monotonic() + budget.max_millis / 1000.0
    n = G.n
    emitted = 0
    bound = None

    def check(now_trees: int):
        if now_trees >= budget.max_trees:
            raise BudgetExceededError(
                f"tree cap {budget.max_trees} reached", emitted=now_trees
            )
        if time.monotonic() > deadline:
            raise BudgetExceededError(
                f"time cap {budget.max_millis} ms reached", emitted=now_trees
            )

    def adj_of(edges) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    # (avail, part, comp, fresh): fresh marks the root and exclude children,
    # whose bridges are not yet in part.  comp labels the vertices so that
    # two ends of an included edge share a label and two trees of the
    # forest part share none; forced bridges need not be merged (below)
    stack = [(frozenset(G.edges), frozenset(), list(range(n)), True)]
    while stack:
        check(emitted)
        avail, part, comp, fresh = stack.pop()
        if fresh:
            forest = None if bound is None else set()
            bridges = _bridges(n, adj_of(avail), forest)
            if forest:
                # price each bridge (a, b) on the DFS forest, from its lower end
                parent, _, load = _vertex_loads(G, wt1, forest)
                if any(load[a if parent[a] == b else b]
                       + (1 if wt2 is None else wt2[(a, b)]) >= bound
                       for a, b in bridges):
                    continue
            part |= bridges
        if len(part) == n - 1:
            emitted += 1
            bound = yield part
            continue
        e = min(avail - part)
        # exclude e: its bridges are forced when it is popped
        stack.append((avail - {e}, part, comp, True))
        # include e: the edges it closes a cycle with are frozen out.  No edge
        # of avail - part joins two vertices of one tree of part (an include
        # removes them, and a forced bridge lies on no cycle), so those are
        # the edges f of avail between the two trees that e joins.  The cycle
        # f closes runs through e and avail, so it crosses no forced bridge
        # (a bridge of avail stays one as avail shrinks): f's end in the
        # other tree is joined to w by included edges, and shares its label
        small, w = _smaller_side(G, part, e)
        other = comp[w]
        closing = {f for x in small for y in G.neighbors(x) if comp[y] == other
                   and (f := (x, y) if x < y else (y, x)) in avail and f != e}
        comp = comp.copy()
        for x in small:
            comp[x] = other
        stack.append((avail - closing, part | {e}, comp, False))


def _smaller_side(G: Graph, part, e: Edge) -> tuple[list[int], int]:
    """The vertices of the smaller of the two trees of the forest part that
    e joins (either on a tie), and the end of e in the other tree.  Both
    trees are walked in step, so the cost is about the degree sum of the
    smaller one, twice."""
    sides = ([e[0]], [e[1]])
    came_from = ([-1], [-1])
    pos = 0
    while True:
        for i, side in enumerate(sides):
            if pos == len(side):
                return side, e[1 - i]
            x, back = side[pos], came_from[i][pos]
            for y in G.neighbors(x):
                if y != back and ((x, y) if x < y else (y, x)) in part:
                    side.append(y)
                    came_from[i].append(x)
        pos += 1


def enumerate_spanning_trees(G: Graph, budget: EnumerationBudget | None = None):
    """Yield every spanning tree edge set (frozenset) of a connected graph.

    Raises BudgetExceededError (with .emitted) when either cap is hit.
    """
    return _search(G, budget)


def count_spanning_trees(G: Graph, budget: EnumerationBudget | None = None) -> int:
    return sum(1 for _ in enumerate_spanning_trees(G, budget))


def stc_exact(G, budget: EnumerationBudget | None = None) -> tuple[int, SpanningTree]:
    """Exact spanning tree congestion by enumeration with branch and bound.

    Ties break toward the first optimal tree in enumeration order.  Accepts a
    Graph or a DoubleWeightedGraph.  The budget counts the trees measured;
    nodes cut off by the bound (module docstring) measure none.  On a Graph
    the scan stops at the first tree whose congestion equals the lower bound
    of `stc.bounds` (the minimum degree, or the largest minimum edge cut
    between two vertices): no tree goes lower, so that tree is the full
    scan's first optimal tree.
    """
    if isinstance(G, DoubleWeightedGraph):
        floor, base, wt1, wt2 = -1, G.base, G.wt1, G.wt2
    else:
        floor, base, wt1, wt2 = lower_bound(G), G, None, None
    search = _search(base, budget, wt1, wt2)
    tree = next(search)
    best = (_max_load(base, wt1, wt2, tree), tree)
    while best[0] != floor:
        try:
            tree = search.send(best[0])
        except StopIteration:
            break
        c = _max_load(base, wt1, wt2, tree)
        if c < best[0]:
            best = (c, tree)
    return best[0], SpanningTree(base, best[1])
