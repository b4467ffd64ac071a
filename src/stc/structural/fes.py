"""Feedback-edge-number solver: peel, kernelize, enumerate, lift.

Degree-1 vertices are deleted exhaustively (their tree edge is a bridge of
congestion 1).  What remains has minimum degree 2; unless it is a bare cycle,
every maximal chain of degree-2 vertices runs between branch vertices and is
compressed: an attached cycle keeps two inner vertices (a triangle), a chain
parallel to an existing edge keeps one, and a chain with no parallel edge
becomes a single edge.  Since subdividing edges never changes the spanning
tree congestion, the kernel has the same optimum, and its size is bounded by
the feedback edge number alone.  `solve_reduced` answers a kernel whose
bounds meet directly, enumerates a small kernel's spanning trees and gives a
larger one to the treewidth DP.  The kernel tree is lifted back by
re-expanding each compressed section (an excluded section re-appears minus
its last edge) and re-attaching the peeled leaves.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..bounds import bounds
from ..dp import search_k
from ..graph import (
    Edge,
    Graph,
    SpanningTree,
    congestion_report,
    edge_key,
    require_connected,
)
from ..oracle import ORACLE_CAP, EnumerationBudget, stc_exact


def fes_value(G: Graph) -> int:
    return G.m - G.n + 1


@dataclass(frozen=True)
class ReductionTrace:
    """Everything needed to rebuild the host graph or lift a kernel tree.

    peeled: (leaf, anchor) pairs in deletion order, host ids.
    sections: kernel edge -> the host path it stands for, in order from the
        kernel edge's first endpoint; untouched kernel edges map to
        themselves.  All ids are host ids.
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
    deg = {v: G.degree(v) for v in range(G.n)}
    alive = set(range(G.n))
    adj = {v: set(G.neighbors(v)) for v in range(G.n)}
    peeled = []
    frontier = sorted(v for v in alive if deg[v] == 1)
    while frontier:
        nxt = []
        for v in frontier:
            if v not in alive or deg[v] != 1:
                continue
            (u,) = adj[v]
            peeled.append((v, u))
            alive.remove(v)
            adj[u].discard(v)
            adj[v].clear()
            deg[u] -= 1
            deg[v] = 0
            if deg[u] == 1:
                nxt.append(u)
        frontier = sorted(nxt)
    return alive, adj, peeled


def reduce_graph(G: Graph) -> tuple[Graph, ReductionTrace]:
    """Kernelize to a graph whose size depends only on fes(G)."""
    require_connected(G)
    alive, adj, peeled = _peel_leaves(G)
    if len(alive) <= 1:
        (v,) = alive
        core = Graph.from_edges(1, [])
        trace = ReductionTrace(G, tuple(peeled), (), (v,), "tree")
        return core, trace
    if all(len(adj[v]) == 2 for v in alive):
        verts = sorted(alive)
        back = {v: i for i, v in enumerate(verts)}
        edges = {edge_key(back[u], back[v]) for u in alive for v in adj[u]}
        core = Graph.from_edges(len(verts), edges)
        sections = tuple(
            (edge_key(u, v), (edge_key(u, v),)) for u in alive for v in adj[u] if u < v
        )
        return core, ReductionTrace(G, tuple(peeled), sections, tuple(verts), "cycle")

    sections: dict[Edge, tuple[Edge, ...]] = {}
    changed = True
    while changed:
        changed = False
        branch = {v for v in alive if len(adj[v]) >= 3}
        for w in sorted(alive):
            if w in branch or w not in alive:
                continue
            # walk the maximal degree-2 chain through w
            chain = [w]
            a, b = sorted(adj[w])
            for end, grow in ((a, "left"), (b, "right")):
                prev = w
                cur = end
                while cur not in branch and cur != w:
                    if grow == "left":
                        chain.insert(0, cur)
                    else:
                        chain.append(cur)
                    nbrs = [x for x in adj[cur] if x != prev]
                    prev, cur = cur, nbrs[0]
                if grow == "left":
                    u_end = cur
                else:
                    v_end = cur
            u, v = u_end, v_end
            internals = chain
            j = len(internals)
            if u == v:
                if j < 3:
                    continue
                # cycle hanging at u: keep the two inner vertices nearest u
                x1, x2 = internals[0], internals[1]
                drop = internals[2:]
                path = [edge_key(internals[i], internals[i + 1]) for i in range(1, j - 1)]
                path.append(edge_key(internals[-1], u))
                _apply(adj, alive, drop, add=[edge_key(x2, u)])
                sections[edge_key(u, x1)] = (edge_key(u, x1),)
                sections[edge_key(x1, x2)] = (edge_key(x1, x2),)
                sections[edge_key(x2, u)] = tuple(path)
            elif v in adj[u]:
                if j < 2:
                    continue
                x1 = internals[0]
                drop = internals[1:]
                path = [edge_key(internals[i], internals[i + 1]) for i in range(j - 1)]
                path.append(edge_key(internals[-1], v))
                _apply(adj, alive, drop, add=[edge_key(x1, v)])
                sections[edge_key(u, x1)] = (edge_key(u, x1),)
                sections[edge_key(x1, v)] = tuple(path)
            else:
                path = [edge_key(u, internals[0])]
                path += [edge_key(internals[i], internals[i + 1]) for i in range(j - 1)]
                path.append(edge_key(internals[-1], v))
                _apply(adj, alive, internals, add=[edge_key(u, v)])
                sections[edge_key(u, v)] = tuple(path)
            changed = True
            break
    verts = sorted(alive)
    back = {x: i for i, x in enumerate(verts)}
    kernel_edges = {edge_key(back[x], back[y]) for x in alive for y in adj[x]}
    core = Graph.from_edges(len(verts), kernel_edges)
    all_sections = dict(sections)
    for x in alive:
        for y in adj[x]:
            e = edge_key(x, y)
            if x < y and e not in all_sections:
                all_sections[e] = (e,)
    fes = fes_value(G)
    branch3 = [v for v in range(core.n) if core.degree(v) >= 3]
    assert len(branch3) < 2 * fes, "branch vertex bound violated"
    degsum = sum(core.degree(v) for v in branch3)
    assert degsum == 2 * (len(branch3) + fes - 1), "branch degree-sum identity violated"
    assert degsum < 6 * fes and core.m < 9 * fes, "kernel edge bound violated"
    trace = ReductionTrace(
        G, tuple(peeled), tuple(sorted(all_sections.items())), tuple(verts), "kernel"
    )
    return core, trace


def _apply(adj, alive, drop, add):
    for x in drop:
        for y in list(adj[x]):
            adj[y].discard(x)
        adj[x].clear()
        alive.discard(x)
    for x, y in add:
        adj[x].add(y)
        adj[y].add(x)


def lift_tree(trace: ReductionTrace, core_tree: frozenset[Edge]) -> SpanningTree:
    """Kernel tree to host tree: sections expand, absences drop one edge."""
    to_host = trace.core_vertices
    chosen = {edge_key(to_host[u], to_host[v]) for u, v in core_tree}
    edges: set[Edge] = set()
    for artifact, path in trace.sections:
        if artifact in chosen:
            edges.update(path)
            chosen.discard(artifact)
        else:
            edges.update(path[:-1])
    edges |= chosen  # kernel edges outside any section (none in practice)
    for leaf, anchor in trace.peeled:
        edges.add(edge_key(leaf, anchor))
    return SpanningTree(trace.original, frozenset(edges))


def solve_reduced(
    core: Graph, trace: ReductionTrace, budget: EnumerationBudget | None = None
) -> tuple[str, int, SpanningTree]:
    """Exact stc of the host from its reduction; returns (route, congestion, tree).

    A tree ("trivial") and a cycle ("cycle", 2) are answered directly.  A
    kernel gets the bounds of `stc.bounds` first (a kernel of more than
    ORACLE_CAP vertices inside `search_k`); when its lower bound meets its
    upper bound, the upper bound's tree is optimal and is taken with no
    enumeration or DP run.  Otherwise a kernel of at most ORACLE_CAP
    vertices is enumerated, stopping at the first tree that meets the lower
    bound ("fes"; the budget caps it), and a larger one goes to the
    treewidth DP's search over k between the bounds ("dp").  The route name
    follows the kernel's size either way.  The kernel tree is lifted and
    re-measured on the host.
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
        if core.n <= ORACLE_CAP:
            route = "fes"
            lam, k_core, core_tree = bounds(core)
            if lam < k_core:
                k_core, core_tree = stc_exact(core, budget)
        else:
            route = "dp"
            k_core, core_tree = search_k(core)
        T = lift_tree(trace, core_tree.edges)
    got = congestion_report(G, T).max_congestion
    assert got == k_core, f"lifting changed congestion: {k_core} -> {got}"
    return route, got, T


def solve_fes(G: Graph, budget: EnumerationBudget | None = None) -> tuple[int, SpanningTree]:
    """Exact stc through the fes kernel (see `solve_reduced`)."""
    return solve_reduced(*reduce_graph(G), budget)[1:]
