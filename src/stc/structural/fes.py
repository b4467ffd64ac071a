"""Feedback-edge-number solver: peel, kernelize, solve the kernel, lift.

Degree-1 vertices are deleted exhaustively (their tree edge is a bridge of
congestion 1).  What remains has minimum degree 2; unless it is a bare cycle,
every maximal chain of degree-2 vertices runs between branch vertices and is
compressed: an attached cycle keeps two inner vertices (a triangle), a chain
parallel to an existing edge keeps one, and a chain with no parallel edge
becomes a single edge.  Since subdividing edges never changes the spanning
tree congestion, the kernel has the same optimum, and its size is bounded by
the feedback edge number alone.

The chains are compressed in one pass, each from its smallest vertex in
increasing order, with its rule decided against the graph as it then
stands.  Two facts make one pass enough.  The branch set is fixed: every
rule replaces a u-v path by a shorter u-v path, so no vertex changes degree.
A skipped chain stays skipped: a later compression only adds an edge between
branch vertices and deletes inner vertices of its own chain, so a cycle
with two inner vertices, or a one-vertex chain parallel to an edge, stays
as it is.  Rescanning the graph after every compression would therefore
compress the same chains in the same order.

`solve_reduced` answers every kernel with the search over k of `stc.dp`,
which returns the bounds' tree where the bounds meet, as they always do on
a small kernel.  The kernel tree is lifted back by re-expanding each
compressed section (an excluded section re-appears minus its last edge) and
re-attaching the peeled leaves.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..bounds import ORACLE_CAP
from ..dp import search_k
from ..graph import (
    Edge,
    Graph,
    SpanningTree,
    congestion_report,
    edge_key,
    require_connected,
)


def fes_value(G: Graph) -> int:
    return G.m - G.n + 1


@dataclass(frozen=True)
class ReductionTrace:
    """Everything needed to rebuild the host graph or lift a kernel tree.

    peeled: (leaf, anchor) pairs in deletion order, host ids.
    sections: kernel edge -> the host path it stands for, as consecutive
        edges from one of its endpoints to the other; untouched kernel edges
        map to themselves.  All ids are host ids.
    core_vertices: host id of each kernel vertex, index-aligned with the
        dense kernel graph.
    kind: "tree" (kernel is one vertex), "cycle", or "kernel".
    """

    original: Graph
    peeled: tuple[tuple[int, int], ...]
    sections: tuple[tuple[Edge, tuple[Edge, ...]], ...]
    core_vertices: tuple[int, ...]
    kind: str


def _peel_leaves(G: Graph):
    """Delete degree-1 vertices exhaustively, in rounds of sorted leaves.

    Returns (adj, peeled): adjacency sets of the surviving vertices only, in
    increasing vertex order, and the (leaf, anchor) pairs in deletion order.
    """
    nbrs = G._adj
    deg = list(map(len, nbrs))
    peeled = []
    frontier = [v for v in range(G.n) if deg[v] == 1]
    while frontier:
        nxt = []
        for v in frontier:
            if deg[v] != 1:
                continue
            for u in nbrs[v]:
                if deg[u] > 0:
                    break
            peeled.append((v, u))
            deg[v] = -1
            deg[u] -= 1
            if deg[u] == 1:
                nxt.append(u)
        frontier = sorted(nxt)
    # copy, then discard: a set built from the surviving neighbours alone can
    # iterate in another order, and the kernel's edge order (so the tree its
    # bounds or the DP find) follows these sets
    adj = {v: set(nbrs[v]) for v in range(G.n) if deg[v] >= 0}
    for leaf, anchor in peeled:
        if anchor in adj:
            adj[anchor].discard(leaf)
    return adj, peeled


def _half_chain(adj, branch, w, cur):
    """Degree-2 vertices from w's neighbour cur to the branch vertex ending them."""
    inner, prev = [], w
    while cur not in branch:
        inner.append(cur)
        a, b = adj[cur]
        prev, cur = cur, b if a == prev else a
    return inner, cur


def _compress_chains(adj, branch) -> dict[Edge, tuple[Edge, ...]]:
    """Compress every maximal degree-2 chain of adj in place, each from its
    smallest vertex; returns the sections of the kernel edges they leave."""
    sections: dict[Edge, tuple[Edge, ...]] = {}
    done: set[int] = set()
    for w in list(adj):
        if w in branch or w in done:
            continue
        # the path u ... w ... v; w's smaller neighbour goes on u's side,
        # which fixes the two vertices a hanging cycle keeps
        a, b = sorted(adj[w])
        left, u = _half_chain(adj, branch, w, a)
        right, v = _half_chain(adj, branch, w, b)
        path = [u, *reversed(left), w, *right, v]
        done.update(path)
        # a hanging cycle keeps two inner vertices, a chain parallel to an
        # edge keeps one, any other chain none; the rest becomes one section
        keep = 2 if u == v else 1 if v in adj[u] else 0
        if len(path) - 2 <= keep:
            continue
        x = path[keep]
        for i in range(keep):
            e = edge_key(path[i], path[i + 1])
            sections[e] = (e,)
        sections[edge_key(x, v)] = tuple(
            edge_key(path[i], path[i + 1]) for i in range(keep, len(path) - 1)
        )
        adj[x].discard(path[keep + 1])
        adj[v].discard(path[-2])
        for y in path[keep + 1:-1]:
            del adj[y]
        adj[x].add(v)
        adj[v].add(x)
    return sections


def reduce_graph(G: Graph) -> tuple[Graph, ReductionTrace]:
    """Kernelize to a graph whose size depends only on fes(G)."""
    require_connected(G)
    adj, peeled = _peel_leaves(G)
    peeled = tuple(peeled)
    if len(adj) == 1:
        return Graph.from_edges(1, []), ReductionTrace(G, peeled, (), tuple(adj), "tree")
    branch = {v for v, nbrs in adj.items() if len(nbrs) >= 3}
    sections = _compress_chains(adj, branch) if branch else {}
    verts = list(adj)
    back = {x: i for i, x in enumerate(verts)}
    kernel_edges = {edge_key(back[x], back[y]) for x in adj for y in adj[x]}
    core = Graph.from_edges(len(verts), kernel_edges)
    as_is = tuple(((x, y), ((x, y),)) for x in adj for y in adj[x] if x < y)
    if not branch:
        return core, ReductionTrace(G, peeled, as_is, tuple(verts), "cycle")
    fes = fes_value(G)
    branch3 = [v for v in range(core.n) if core.degree(v) >= 3]
    assert len(branch3) < 2 * fes, "branch vertex bound violated"
    degsum = sum(core.degree(v) for v in branch3)
    assert degsum == 2 * (len(branch3) + fes - 1), "branch degree-sum identity violated"
    assert degsum < 6 * fes and core.m < 9 * fes, "kernel edge bound violated"
    sections = dict(as_is) | sections
    trace = ReductionTrace(G, peeled, tuple(sorted(sections.items())), tuple(verts), "kernel")
    return core, trace


def lift_tree(trace: ReductionTrace, core_tree: frozenset[Edge]) -> SpanningTree:
    """Kernel tree to host tree: sections expand, absences drop one edge.

    The peeled (leaf, anchor) pairs and the section paths partition the
    host's edges: peeling deletes each leaf's one edge, and every surviving
    edge lies on exactly one section, a compressed chain or a kernel edge
    standing for itself.  Every kernel edge has a section.  So the lifted
    tree, which keeps the peeled edges and the whole path of each chosen
    kernel edge and drops the last edge of each other path, is the host's
    edge set minus those last edges.  SpanningTree validates the result.
    """
    to_host = trace.core_vertices
    chosen = {edge_key(to_host[u], to_host[v]) for u, v in core_tree}
    dropped = {path[-1] for artifact, path in trace.sections if artifact not in chosen}
    return SpanningTree(trace.original, trace.original.edges - dropped)


def solve_reduced(core: Graph, trace: ReductionTrace) -> tuple[str, int, SpanningTree]:
    """Exact stc of the host from its reduction; returns (route, congestion, tree).

    A tree ("trivial") and a cycle ("cycle", 2) are answered directly.  A
    kernel goes to `search_k`, which takes the upper bound's tree when the
    bounds of `stc.bounds` meet and otherwise runs the treewidth DP over k
    between them.  The bounds meet on every kernel of at most ORACLE_CAP
    vertices, so no DP runs there.  The route is named by the kernel's size,
    "fes" up to ORACLE_CAP and "dp" above it.  The kernel tree is lifted
    and re-measured on the host.
    """
    G = trace.original
    if trace.kind == "tree":
        return "trivial", (1 if G.n > 1 else 0), SpanningTree(G, G.edges)
    if trace.kind == "cycle":
        # every spanning tree of a cycle has congestion 2; drop the last core
        # edge, as the first tree the enumeration would emit does
        route, k_core = "cycle", 2
        T = SpanningTree(G, G.edges - {max(e for e, _ in trace.sections)})
    else:
        route = "fes" if core.n <= ORACLE_CAP else "dp"
        k_core, core_tree = search_k(core)
        T = lift_tree(trace, core_tree.edges)
    got = congestion_report(G, T).max_congestion
    assert got == k_core, f"lifting changed congestion: {k_core} -> {got}"
    return route, got, T


def solve_fes(G: Graph) -> tuple[int, SpanningTree]:
    """Exact stc through the fes kernel (see `solve_reduced`)."""
    return solve_reduced(*reduce_graph(G))[1:]
