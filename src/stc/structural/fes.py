"""Feedback-edge-number solver: peel, kernelize, solve the kernel, lift.

Degree-1 vertices are deleted exhaustively (their tree edge is a bridge of
congestion 1).  What remains has minimum degree 2; unless it is a bare cycle,
every maximal chain of degree-2 vertices runs between branch vertices and is
compressed: an attached cycle keeps two inner vertices (a triangle), a chain
parallel to an existing edge keeps one, and a chain with no parallel edge
becomes a single edge.  Since subdividing edges never changes the spanning
tree congestion, the kernel has the same optimum, and its size is bounded by
the feedback edge number alone.

The reduction works on one list of neighbours per vertex, in the order of
G.edges, and an array of degrees; it builds no adjacency sets for the host
and walks no path over all of it.  Leaves are peeled on the degree array,
in rounds of sorted leaves; a leaf's anchor is its one unpeeled neighbour.
Every maximal chain of degree-2 survivors is then walked once, from the
first branch end met, and the chains are compressed in one pass, each from
its smallest vertex in increasing order, with the smaller neighbour of that
vertex on the side of the chain's first end, and with its rule decided
against the graph as it then stands.  Two facts make one pass enough.  The
branch set is fixed: every rule replaces a u-v path by a shorter u-v path,
so no vertex changes degree.  A skipped chain stays skipped: a later
compression only adds an edge between branch vertices and deletes inner
vertices of its own chain, so a cycle with two inner vertices, or a
one-vertex chain parallel to an edge, stays as it is.  Rescanning the graph
after every compression would therefore compress the same chains in the
same order.  So a chain's parallel-edge test needs only the host's edge
set and the branch edges made so far.

Connectivity is read off the reduction, once G has the n - 1 edges a
connected graph needs.  Peeling a leaf and shortening a chain keep the
number of components, and a tree component is peeled down to one vertex of
degree 0.  So G is connected iff one vertex is left after peeling, or the
survivors all have degree 2 and the walk round the cycle from one of them
visits them all, or every survivor is a branch vertex or lies on a walked
chain and the kernel is connected.  (A degree-2 survivor on no walked chain
lies on a component that is a bare cycle; a survivor of degree 0 is what is
left of a tree component.)

The kernel's edge order decides the tree the search over k finds, and it
follows the iteration order of the kernel vertices' adjacency sets, which
CPython fixes by the sequence of adds and removes that made each set's
table.  So the sets are built for the kernel's vertices only, but by the
steps that Graph._adj and a copy of it take: the neighbours added in edge
order, a frozenset of them, a set copy of that, then the peeled neighbours
discarded, then each compression's discard and add, in compression order.
A set built from the surviving neighbours alone holds the same vertices
but can iterate in another order, and move the trees.

`solve_reduced` answers every kernel with the search over k of `stc.dp`:
the bounds' tree where the bounds meet, else the vertex-subset step on a
small kernel and the DP on a larger one.  The kernel tree is lifted back
by re-expanding each compressed section (an excluded section re-appears
minus its last edge) and re-attaching the peeled leaves.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..bounds import ORACLE_CAP
from ..dp import search_k
from ..errors import DisconnectedGraphError
from ..graph import Edge, Graph, SpanningTree, congestion_report, edge_key


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


def _peel(nbrs, deg) -> list[tuple[int, int]]:
    """Peel degree-1 vertices exhaustively, in rounds of sorted leaves.

    Works in place on deg, the number of unpeeled neighbours of each vertex,
    which ends at -1 on the peeled ones; returns the (leaf, anchor) pairs in
    deletion order.  A leaf has one unpeeled neighbour, its anchor.
    """
    peeled = []
    frontier = [v for v, d in enumerate(deg) if d == 1]
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
    return peeled


def _walk_chains(nbrs, deg, branch) -> list[list[int]]:
    """Every maximal chain of degree-2 survivors as the path between its two
    branch ends, each walked once, from the first end met."""
    walked = bytearray(len(deg))
    chains = []
    for b in branch:
        for c in nbrs[b]:
            if deg[c] != 2 or walked[c]:
                continue
            path, prev, cur = [b], b, c
            while deg[cur] == 2:
                path.append(cur)
                walked[cur] = 1
                for u in nbrs[cur]:
                    if u != prev and deg[u] >= 0:
                        break
                prev, cur = cur, u
            path.append(cur)
            chains.append(path)
    return chains


def _compress(edges: frozenset[Edge], chains):
    """Replay the one-pass compression on the walked chains.

    Returns (kept, sections, moves): the chain vertices the kernel keeps,
    the sections of the kernel edges the chains leave, and one move
    (x, y, v, z) per compressed chain, which replaces its edges xy and vz
    by xv.
    """
    kept: list[int] = []
    sections: dict[Edge, tuple[Edge, ...]] = {}
    moves = []
    made: set[Edge] = set()
    for w, path in sorted((min(p[1:-1]), p) for p in chains):
        # w, the chain's smallest vertex, has its smaller neighbour on u's
        # side, which fixes the two vertices a hanging cycle keeps
        at = path.index(w)
        if path[at - 1] > path[at + 1]:
            path.reverse()
        u, v = path[0], path[-1]
        # a hanging cycle keeps two inner vertices, a chain parallel to an
        # edge keeps one, any other chain none; the rest becomes one section
        uv = edge_key(u, v)
        keep = 2 if u == v else 1 if uv in edges or uv in made else 0
        if len(path) - 2 <= keep:
            kept += path[1:-1]
            continue
        kept += path[1:keep + 1]
        x = path[keep]
        for i in range(keep):
            e = edge_key(path[i], path[i + 1])
            sections[e] = (e,)
        sections[edge_key(x, v)] = tuple(
            [(a, b) if a < b else (b, a) for a, b in zip(path[keep:], path[keep + 1:])]
        )
        moves.append((x, path[keep + 1], v, path[-2]))
        if keep == 0:
            made.add(uv)
    return kept, sections, moves


def _one_cycle(adj) -> bool:
    """Whether the walk round the cycle through adj's first vertex visits
    every vertex of adj; each set of adj holds two vertices."""
    start = prev = next(iter(adj))
    cur, steps = next(iter(adj[start])), 1
    while cur != start:
        a, b = adj[cur]
        prev, cur = cur, b if a == prev else a
        steps += 1
    return steps == len(adj)


def _disconnected() -> DisconnectedGraphError:
    return DisconnectedGraphError("input graph is not connected")


def reduce_graph(G: Graph) -> tuple[Graph, ReductionTrace]:
    """Kernelize to a graph whose size depends only on fes(G).

    Raises DisconnectedGraphError when G is not connected.
    """
    if G.m < G.n - 1:  # before one list per vertex, as for `p stc 1000000 0`
        raise _disconnected()
    nbrs: list[list[int]] = [[] for _ in range(G.n)]
    for u, v in G.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    deg = list(map(len, nbrs))
    peeled = tuple(_peel(nbrs, deg))
    if len(peeled) == G.n - 1:
        return Graph.from_edges(1, []), ReductionTrace(G, peeled, (), (deg.index(0),), "tree")
    if 0 in deg:
        raise _disconnected()
    branch = [v for v, d in enumerate(deg) if d >= 3]
    if branch:
        inner = deg.count(2)
        chains = _walk_chains(nbrs, deg, branch) if inner else []
        if sum(len(p) - 2 for p in chains) != inner:
            raise _disconnected()
        kept, sections, moves = _compress(G.edges, chains)
        verts = sorted(branch + kept)
    else:
        verts = [v for v, d in enumerate(deg) if d >= 0]
        sections, moves = {}, []
    # the kernel vertices' sets, by the steps that keep their iteration
    # order (see the module docstring)
    adj = {x: set(frozenset(set(nbrs[x]))) for x in verts}
    for leaf, anchor in peeled:
        if anchor in adj:
            adj[anchor].discard(leaf)
    for x, y, v, z in moves:
        adj[x].discard(y)
        adj[v].discard(z)
        adj[x].add(v)
        adj[v].add(x)
    if not branch and not _one_cycle(adj):
        raise _disconnected()
    back = {x: i for i, x in enumerate(verts)}
    kernel_edges = {edge_key(back[x], back[y]) for x in adj for y in adj[x]}
    core = Graph.from_edges(len(verts), kernel_edges)
    as_is = tuple(((x, y), ((x, y),)) for x in adj for y in adj[x] if x < y)
    if not branch:
        return core, ReductionTrace(G, peeled, as_is, tuple(verts), "cycle")
    if not core.is_connected():
        raise _disconnected()
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
    bounds of `stc.bounds` meet and otherwise decides k between them: by the
    vertex-subset step up to ORACLE_CAP vertices, where no DP runs, and by
    the treewidth DP above.  The route is named by the kernel's size, "fes"
    up to ORACLE_CAP and "dp" above it.  The kernel tree is lifted and
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
        route = "fes" if core.n <= ORACLE_CAP else "dp"
        k_core, core_tree = search_k(core)
        T = lift_tree(trace, core_tree.edges)
    got = congestion_report(G, T).max_congestion
    assert got == k_core, f"lifting changed congestion: {k_core} -> {got}"
    return route, got, T


def solve_fes(G: Graph) -> tuple[int, SpanningTree]:
    """Exact stc through the fes kernel (see `solve_reduced`)."""
    return solve_reduced(*reduce_graph(G))[1:]
