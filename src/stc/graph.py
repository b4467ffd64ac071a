"""Undirected graphs, spanning trees, and congestion evaluation.

Congestion of a tree edge e counts every graph edge whose detour (the unique
tree path between its endpoints) passes through e; the detour of a tree edge
is the edge itself, so e always counts its own weight.  In the double-weighted
variant a tree edge e costs wt2(e) for itself while every other graph edge
crossing its cut contributes wt1.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    """Immutable simple undirected graph on vertices 0..n-1.

    The edges, a frozenset of pairs (u, v) with u < v, are checked at
    construction; `from_edges` builds one from any iterable of pairs and
    refuses loops and duplicates.  The adjacency sets are built on first
    use, from the edges in their iteration order, and kept.
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        if not isinstance(self.edges, frozenset):
            raise GraphError(
                f"edges must be a frozenset, not {type(self.edges).__name__};"
                " Graph.from_edges takes any iterable of pairs"
            )
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 2):
                raise GraphError(f"bad edge {e!r}")
            u, v = e
            if not (0 <= u < v < n):
                raise GraphError(f"edge {e!r} out of range or not normalized")

    @cached_property
    def _adj(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(map(frozenset, adj))

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
        # fewer than n - 1 edges cannot connect n vertices; answering before
        # the walk spares building n adjacency sets for an edgeless header
        if self.m < self.n - 1:
            return False
        return len(_bfs_walk(self._adj, 0)[2]) == self.n


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

    The validating walk (`_tree_order`) is kept with the tree.  Its
    unweighted congestion report is computed from that walk on first use
    and kept too: every later congestion_report(host, T) returns that same
    report.
    """

    host: Graph
    edges: frozenset[Edge]
    _walk: tuple[list[int], list[int], list[int]] = field(
        init=False, repr=False, compare=False, hash=False
    )
    _report: CongestionReport | None = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        walk = _spanning_walk(self.host, self.edges)
        if isinstance(walk, InvalidSpanningTreeError):
            raise walk
        object.__setattr__(self, "_walk", walk)


def _spanning_walk(G: Graph, edges: frozenset[Edge]):
    """`_tree_order` of edges if they form a spanning tree of G, else the
    InvalidSpanningTreeError that says why they do not.

    n - 1 edges of G whose walk from vertex 0 reaches all n vertices form a
    spanning tree; only a failed walk runs the union-find, to name the edge
    that closes a cycle.
    """
    if not edges <= G.edges:
        return InvalidSpanningTreeError("not in the graph", min(edges - G.edges))
    if len(edges) != G.n - 1:
        return InvalidSpanningTreeError(f"{len(edges)} edges, a spanning tree needs {G.n - 1}")
    walk = _tree_order(G.n, edges)
    if len(walk[2]) == G.n:
        return walk
    parent = list(range(G.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in set(edges):  # a set copy: its order decides the edge named
        ru, rv = find(u), find(v)
        if ru == rv:
            return InvalidSpanningTreeError("closes a cycle", (u, v))
        parent[ru] = rv
    raise AssertionError("n - 1 edges that reach fewer than n vertices close a cycle")


@dataclass(frozen=True)
class CongestionReport:
    per_edge: dict[Edge, int]
    max_congestion: int


def _tree_order(n: int, tree_edges) -> tuple[list[int], list[int], list[int]]:
    """BFS parents/depths/visit order of the tree rooted at 0."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in tree_edges:
        adj[u].append(v)
        adj[v].append(u)
    return _bfs_walk(adj, 0)


def _bfs_walk(adj, root: int) -> tuple[list[int], list[int], list[int]]:
    """BFS parents/depths/visit order from root over the adjacency lists
    adj; parent is -1 at the root and at every vertex the walk misses."""
    parent = [-1] * len(adj)
    depth = [0] * len(adj)
    order = [root]
    parent[root] = root
    for v in order:
        d = depth[v] + 1
        for u in adj[v]:
            if parent[u] == -1:
                parent[u] = v
                depth[u] = d
                order.append(u)
    parent[root] = -1
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
    if isinstance(G, DoubleWeightedGraph):
        base, wt1, wt2 = G.base, G.wt1, G.wt2
    else:
        base, wt1, wt2 = G, None, None
    if isinstance(T, SpanningTree) and T.host is base:
        edges, walk = T.edges, T._walk  # validated at construction
    else:
        edges = T.edges if isinstance(T, SpanningTree) else frozenset(edge_key(*e) for e in T)
        walk = _spanning_walk(base, edges)
        if isinstance(walk, InvalidSpanningTreeError):
            raise walk
    per_edge = _edge_loads(base, wt1, wt2, edges, walk)
    rep = CongestionReport(per_edge, max(per_edge.values(), default=0))
    if keep:
        object.__setattr__(T, "_report", rep)
    return rep


def _vertex_loads(
    base: Graph, wt1, tree_edges, walk=None
) -> tuple[list[int], list[int], list[int]]:
    """BFS parents and order of a spanning tree of base, and for every vertex
    v the total wt1 of the non-tree edges whose detour uses the tree edge
    from v to its parent (0 at the root); no validation.

    wt1=None weighs every edge 1; walk, when given, is the tree's BFS walk
    from any root (`_tree_order` roots it at 0).  With tree_edges=None the
    walk names the tree edges: base is simple, so its edge ab is in the
    tree iff parent[a] == b or parent[b] == a.  (A given edge set is
    subtracted from base's instead, which is faster on large trees.)  Every
    non-tree edge adds wt1 along its whole detour with one pair of
    lca-difference marks, then a single reverse-BFS pass accumulates them.
    """
    parent, depth, order = walk or _tree_order(base.n, tree_edges)
    by_parent = tree_edges is None
    load = [0] * base.n
    for e in base.edges if by_parent else base.edges - tree_edges:
        a, b = e
        if by_parent and (parent[a] == b or parent[b] == a):
            continue
        w = 1 if wt1 is None else wt1[e]
        # walk both endpoints up to their lca, marking the paths
        x, y = a, b
        while x != y:
            if depth[x] < depth[y]:
                x, y = y, x
            x = parent[x]
        load[a] += w
        load[b] += w
        load[x] -= 2 * w
    for v in order[:0:-1]:
        load[parent[v]] += load[v]
    return parent, order, load


def _edge_loads(base: Graph, wt1, wt2, tree_edges, walk=None) -> dict[Edge, int]:
    """Congestion of every edge of a spanning tree of base; no validation.

    wt1=None and wt2=None weigh every edge 1.
    """
    parent, order, load = _vertex_loads(base, wt1, tree_edges, walk)
    per_edge: dict[Edge, int] = {}
    for v in order[:0:-1]:
        p = parent[v]
        e = (v, p) if v < p else (p, v)
        per_edge[e] = load[v] + (1 if wt2 is None else wt2[e])
    return per_edge


def _max_load(base: Graph, wt1, wt2, tree_edges, walk=None) -> int:
    """The largest congestion of a spanning tree of base; no validation.

    wt2=None prices every tree edge 1 for itself; walk is as in _vertex_loads.
    """
    if base.n == 1:
        return 0
    parent, order, load = _vertex_loads(base, wt1, tree_edges, walk)
    if wt2 is None:
        # the root's load is 0 and every other load is >= 0
        return max(load) + 1
    return max(load[v] + wt2[edge_key(v, parent[v])] for v in order[1:])


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


def require_connected(G) -> None:
    base = G.base if isinstance(G, DoubleWeightedGraph) else G
    if not base.is_connected():
        raise DisconnectedGraphError("input graph is not connected")
