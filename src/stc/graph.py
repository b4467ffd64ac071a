"""Undirected graphs, spanning trees, and congestion evaluation.

Congestion of a tree edge e counts every graph edge whose detour (the unique
tree path between its endpoints) passes through e; the detour of a tree edge
is the edge itself, so e always counts its own weight.  In the double-weighted
variant a tree edge e costs wt2(e) for itself while every other graph edge
crossing its cut contributes wt1.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    DisconnectedGraphError,
    GraphError,
    InvalidSpanningTreeError,
)

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Normalized edge tuple with the smaller endpoint first."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[Edge]
    _adj: tuple[frozenset[int], ...] = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("graph needs at least one vertex")
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 2):
                raise GraphError(f"bad edge {e!r}")
            u, v = e
            if not (0 <= u < v < self.n):
                raise GraphError(f"edge {e!r} out of range or not normalized")
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", tuple(frozenset(s) for s in adj))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        out = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self loop at {u}")
            e = edge_key(u, v)
            if e in out:
                raise GraphError(f"duplicate edge {e}")
            out.add(e)
        return cls(n, frozenset(out))

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def is_connected(self) -> bool:
        return len(component_of(self, 0)) == self.n

    def is_tree(self) -> bool:
        return self.m == self.n - 1 and self.is_connected()


def component_of(G: Graph, start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in G.neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def connected_components(G: Graph, skip: frozenset[int] = frozenset()) -> list[list[int]]:
    """Components of G - skip, each sorted, ordered by smallest member."""
    seen = set(skip)
    comps = []
    for s in range(G.n):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            v = stack.pop()
            for u in G.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def induced_subgraph(G: Graph, verts) -> tuple[Graph, list[int]]:
    """Subgraph on verts with relabeled ids; returns (graph, old ids by new id)."""
    old = sorted(verts)
    idx = {v: i for i, v in enumerate(old)}
    edges = [
        (idx[u], idx[v])
        for u, v in G.edges
        if u in idx and v in idx
    ]
    return Graph.from_edges(len(old), edges), old


@dataclass(frozen=True)
class DoubleWeightedGraph:
    """Graph with per-edge weight pair (wt1, wt2), both >= 1.

    wt1 prices an edge when it rides some other edge's detour, wt2 prices a
    tree edge for itself.  wt1 == wt2 recovers the single-weighted problem.
    """

    base: Graph
    wt1: dict[Edge, int]
    wt2: dict[Edge, int]

    def __post_init__(self):
        for name, w in (("wt1", self.wt1), ("wt2", self.wt2)):
            if set(w) != set(self.base.edges):
                raise GraphError(f"{name} keys must equal the edge set")
            for e, val in w.items():
                if not isinstance(val, int) or val < 1:
                    raise GraphError(f"{name}[{e}] = {val!r}, weights are integers >= 1")

    @classmethod
    def single(cls, base: Graph, wt: dict[Edge, int]) -> "DoubleWeightedGraph":
        return cls(base, dict(wt), dict(wt))

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def edges(self) -> frozenset[Edge]:
        return self.base.edges

    def is_single_weighted(self) -> bool:
        return self.wt1 == self.wt2


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of host, validated once, at construction.

    Its unweighted congestion report is computed on first use and kept:
    every later congestion_report(host, T) returns that same report.
    """

    host: Graph
    edges: frozenset[Edge]
    _report: CongestionReport | None = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        err = spanning_tree_violation(self.host, self.edges)
        if err:
            raise InvalidSpanningTreeError(err)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def spanning_tree_violation(G: Graph, tree_edges) -> str | None:
    """None if tree_edges is a spanning tree of G, else a description."""
    edges = set(tree_edges)
    if not edges <= G.edges:
        bad = min(edges - G.edges)
        return f"edge {bad} not in the graph"
    if len(edges) != G.n - 1:
        return f"{len(edges)} edges, a spanning tree needs {G.n - 1}"
    parent = list(range(G.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return f"edge ({u}, {v}) closes a cycle"
        parent[ru] = rv
    return None


@dataclass(frozen=True)
class CongestionReport:
    per_edge: dict[Edge, int]
    max_congestion: int

    @property
    def total(self) -> int:
        return sum(self.per_edge.values())


def _tree_order(n: int, tree_edges) -> tuple[list[int], list[int], list[int]]:
    """BFS parents/depths/visit order of the tree rooted at 0."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in tree_edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    depth = [0] * n
    order = [0]
    parent[0] = 0
    for v in order:
        for u in adj[v]:
            if parent[u] == -1:
                parent[u] = v
                depth[u] = depth[v] + 1
                order.append(u)
    parent[0] = -1
    return parent, depth, order


def congestion_report(G, T) -> CongestionReport:
    """Per-tree-edge congestion via subtree aggregation (near-linear).

    A SpanningTree measured on its own host, a plain Graph, is measured once:
    the report is kept on the tree and returned again, so treat per_edge as
    read-only.
    """
    keep = isinstance(T, SpanningTree) and T.host is G and isinstance(G, Graph)
    if keep and T._report is not None:
        return T._report
    base, wt1, wt2 = _split_weights(G)
    per_edge = _edge_loads(base, wt1, wt2, _tree_edge_set(base, T))
    rep = CongestionReport(per_edge, max(per_edge.values(), default=0))
    if keep:
        object.__setattr__(T, "_report", rep)
    return rep


def _vertex_loads(base: Graph, wt1, tree_edges) -> tuple[list[int], list[int], list[int]]:
    """BFS parents and order of a spanning tree of base, and for every vertex
    v the total wt1 of the non-tree edges whose detour uses the tree edge
    from v to its parent (0 at the root); no validation.

    Every non-tree edge adds wt1 along its whole detour with one pair of
    lca-difference marks, then a single reverse-BFS pass accumulates them.
    """
    parent, depth, order = _tree_order(base.n, tree_edges)
    load = [0] * base.n
    for e in base.edges:
        if e in tree_edges:
            continue
        a, b = e
        w = wt1[e]
        # walk both endpoints up to their lca, marking the paths
        x, y = a, b
        while x != y:
            if depth[x] < depth[y]:
                x, y = y, x
            x = parent[x]
        load[a] += w
        load[b] += w
        load[x] -= 2 * w
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            load[p] += load[v]
    return parent, order, load


def _edge_loads(base: Graph, wt1, wt2, tree_edges) -> dict[Edge, int]:
    """Congestion of every edge of a spanning tree of base; no validation."""
    parent, order, load = _vertex_loads(base, wt1, tree_edges)
    per_edge: dict[Edge, int] = {}
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            e = edge_key(v, p)
            per_edge[e] = load[v] + wt2[e]
    return per_edge


def _max_load(base: Graph, wt1, wt2, tree_edges) -> int:
    """The largest congestion of a spanning tree of base; no validation.

    wt2=None prices every tree edge 1 for itself.
    """
    if base.n == 1:
        return 0
    parent, order, load = _vertex_loads(base, wt1, tree_edges)
    if wt2 is None:
        # the root's load is 0 and every other load is >= 0
        return max(load) + 1
    return max(load[v] + wt2[edge_key(v, parent[v])] for v in order[1:])


def _split_weights(G):
    if isinstance(G, DoubleWeightedGraph):
        return G.base, G.wt1, G.wt2
    one = {e: 1 for e in G.edges}
    return G, one, one


def _tree_edge_set(base: Graph, T) -> frozenset[Edge]:
    if isinstance(T, SpanningTree) and T.host is base:
        return T.edges  # validated at construction
    edges = T.edges if isinstance(T, SpanningTree) else frozenset(edge_key(*e) for e in T)
    err = spanning_tree_violation(base, edges)
    if err:
        raise InvalidSpanningTreeError(err)
    return edges


def twin_classes(G: Graph, S) -> list[list[int]]:
    """Partition of V - S by identical neighborhoods inside S.

    Classes are sorted internally and ordered by smallest member.  S = empty
    puts everything in one class (complete symmetry under the empty probe).
    """
    S = frozenset(S)
    groups: dict[frozenset[int], list[int]] = {}
    for v in range(G.n):
        if v in S:
            continue
        groups.setdefault(G.neighbors(v) & S, []).append(v)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def find_biclique(G: Graph, t: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """First K_{t,t} subgraph (two disjoint t-sets, all cross edges present).

    Exhaustive over t-subsets in lexicographic order; desk scale only.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if 2 * t > G.n:
        return None
    cand = [v for v in range(G.n) if G.degree(v) >= t]
    for A in itertools.combinations(cand, t):
        common: set[int] | None = None
        for a in A:
            nb = set(G.neighbors(a))
            common = nb if common is None else common & nb
            if len(common) < t:
                break
        else:
            common = sorted(common - set(A))
            if len(common) >= t:
                return tuple(A), tuple(common[:t])
    return None


def require_connected(G) -> None:
    base = G.base if isinstance(G, DoubleWeightedGraph) else G
    if not base.is_connected():
        raise DisconnectedGraphError("input graph is not connected")
