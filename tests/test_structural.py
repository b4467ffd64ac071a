from __future__ import annotations

import collections
import dataclasses
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    subdivided,
    suite_graphs,
    vertex_integrity_set,
)
from stc.bounds import bounds
from stc.dp import solve_stc_tw
from stc.errors import DisconnectedGraphError, GraphError
from stc.graph import (
    Graph,
    SpanningTree,
    congestion_report,
    edge_key,
    require_connected,
)
from stc.oracle import stc_exact
from stc.reductions import gen_grid
import stc.structural.vi
from stc.structural import (
    ComponentType,
    ReductionTrace,
    Signature,
    enumerate_types,
    fes_value,
    ilp_minimize_max,
    lift_tree,
    reduce_graph,
    small_case_threshold,
    solve_dtc,
    solve_fes,
    solve_vi,
    tree_from_signature,
)
from stc.structural.dtc import _check_modulator


def theta_graph(*lengths: int) -> Graph:
    """Two hubs joined by internally disjoint paths of the given edge counts."""
    edges = []
    nxt = 2
    for L in lengths:
        prev = 0
        for _ in range(L - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph.from_edges(nxt, edges)


# -- feedback edge set --------------------------------------------------------


def test_reduce_tree_collapses_to_vertex():
    G = star_graph(6)
    core, trace = reduce_graph(G)
    assert trace.kind == "tree"
    assert core.n == 1 and core.m == 0
    k, T = solve_fes(G)
    assert k == 1 and congestion_report(G, T).max_congestion == 1


def test_reduce_cycle_flagged():
    # a bare cycle, and a cycle on 1, 3, 4, 6, 7 with pendant paths at 1 and 6
    pendant = Graph.from_edges(9, [(1, 3), (3, 4), (4, 6), (6, 7), (1, 7),
                                   (0, 1), (2, 0), (5, 6), (8, 5)])
    for G in (cycle_graph(7), pendant):
        core, trace = reduce_graph(G)
        assert trace.kind == "cycle"
        k, T = solve_fes(G)
        # answered without enumeration, with the tree enumeration would pick
        assert k == 2 and T == lift_tree(trace, stc_exact(core)[1].edges)


def test_reduce_theta_shape():
    # three length-2 paths: one becomes the direct edge, two stay as paths
    G = theta_graph(2, 2, 2)
    core, trace = reduce_graph(G)
    assert trace.kind == "kernel"
    assert core.n == 4 and core.m == 5
    degs = sorted(core.degree(v) for v in range(core.n))
    assert degs == [2, 2, 3, 3]
    k, T = solve_fes(G)
    assert k == stc_exact(G)[0] == 3


def test_reduce_pins_chain_order():
    # hubs 0 and 1 joined by 0-2-3-4-1 (leaf 13 on 4), 0-5-6-1 and 0-7-1;
    # cycles 0-8-9-10-0 and 1-11-12-1 hang at the hubs.  Chains go by their
    # smallest vertex: 2's becomes the edge (0, 1), so 5's chain is parallel
    # to it and keeps 5, and 0-7-1, now parallel with one inner vertex, is
    # skipped; the first cycle keeps 8 and 9, the triangle at 1 is skipped.
    G = Graph.from_edges(14, [
        (0, 2), (2, 3), (3, 4), (4, 1), (4, 13), (0, 5), (5, 6), (6, 1), (0, 7),
        (7, 1), (0, 8), (8, 9), (9, 10), (10, 0), (1, 11), (11, 12), (12, 1),
    ])
    core, trace = reduce_graph(G)
    assert trace.kind == "kernel" and trace.peeled == ((13, 4),)
    assert trace.core_vertices == (0, 1, 5, 7, 8, 9, 11, 12)
    assert sorted(core.edges) == [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 6), (1, 7),
        (4, 5), (6, 7),
    ]
    assert trace.sections == (
        ((0, 1), ((0, 2), (2, 3), (3, 4), (1, 4))),
        ((0, 5), ((0, 5),)),
        ((0, 7), ((0, 7),)),
        ((0, 8), ((0, 8),)),
        ((0, 9), ((9, 10), (0, 10))),
        ((1, 5), ((5, 6), (1, 6))),
        ((1, 7), ((1, 7),)),
        ((1, 11), ((1, 11),)),
        ((1, 12), ((1, 12),)),
        ((8, 9), ((8, 9),)),
        ((11, 12), ((11, 12),)),
    )
    assert reconstruct(core, trace) == G


def reconstruct(core: Graph, trace) -> Graph:
    """Replay the trace; the result must equal the host graph."""
    to_host = trace.core_vertices
    edges = {edge_key(to_host[u], to_host[v]) for u, v in core.edges}
    for artifact, path in trace.sections:
        edges.discard(artifact)
        edges.update(path)
    for leaf, anchor in trace.peeled:
        edges.add(edge_key(leaf, anchor))
    return Graph.from_edges(trace.original.n, edges)


def test_reduce_reconstructs_host():
    rng = random.Random(7)
    for _ in range(30):
        G = random_connected_graph(rng, rng.randint(2, 14), rng.randint(1, 16))
        core, trace = reduce_graph(G)
        assert reconstruct(core, trace) == G


def test_reduce_bounds_hold():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(3, 40)
        G = random_connected_graph(rng, n, n - 1 + rng.randint(0, 4))
        fes = fes_value(G)
        core, trace = reduce_graph(G)
        assert fes_value(core) == fes
        if trace.kind == "kernel":
            big = [v for v in range(core.n) if core.degree(v) >= 3]
            assert len(big) < 2 * fes
            assert sum(core.degree(v) for v in big) < 6 * fes
            assert core.m < 9 * fes


def test_fes_matches_oracle_and_lifts():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(3, 12)
        G = random_connected_graph(rng, n, n - 1 + rng.randint(0, 3))
        want, _ = stc_exact(G)
        got, T = solve_fes(G)
        assert got == want
        assert congestion_report(G, T).max_congestion == got


def test_reduce_preserves_stc_on_larger_hosts():
    # hosts beyond easy enumeration still yield kernels the oracle can take
    rng = random.Random(10)
    for _ in range(10):
        n = rng.randint(20, 40)
        G = random_connected_graph(rng, n, n - 1 + rng.randint(1, 4))
        core, trace = reduce_graph(G)
        kk, core_tree = stc_exact(core)
        lifted = lift_tree(trace, core_tree.edges)
        assert congestion_report(G, lifted).max_congestion == kk


def lift_by_union(trace, core_tree) -> frozenset:
    """The lifted tree built section by section, as the union of each chosen
    section's path, each other section's path but its last edge, and the
    peeled edges."""
    to_host = trace.core_vertices
    chosen = {edge_key(to_host[u], to_host[v]) for u, v in core_tree}
    edges = set()
    for artifact, path in trace.sections:
        if artifact in chosen:
            edges.update(path)
            chosen.discard(artifact)
        else:
            edges.update(path[:-1])
    edges |= chosen
    edges.update(edge_key(a, b) for a, b in trace.peeled)
    return frozenset(edges)


def with_pendant_trees(rng: random.Random, G: Graph, extra: int) -> Graph:
    """G with extra new vertices, each hung from a random earlier vertex."""
    edges = list(G.edges) + [(rng.randrange(v), v) for v in range(G.n, G.n + extra)]
    return Graph.from_edges(G.n + extra, edges)


def random_spanning_tree(rng: random.Random, G: Graph) -> frozenset:
    edges = sorted(G.edges)
    rng.shuffle(edges)
    comp = list(range(G.n))
    tree = set()
    for u, v in edges:
        cu, cv = comp[u], comp[v]
        if cu != cv:
            comp = [cu if c == cv else c for c in comp]
            tree.add((u, v))
    return frozenset(tree)


def test_lift_is_the_union_of_sections():
    rng = random.Random(24)
    hosts = [with_pendant_trees(rng, subdivided(G, rng.randint(0, 2)), rng.randint(0, 6))
             for G in suite_graphs()]
    kinds = set()
    for H in hosts:
        core, trace = reduce_graph(H)
        kinds.add(trace.kind)
        for _ in range(3):
            core_tree = random_spanning_tree(rng, core)
            assert lift_tree(trace, core_tree).edges == lift_by_union(trace, core_tree)
    assert kinds == {"tree", "cycle", "kernel"}
    # a cycle kernel: every spanning tree of the core drops one of its edges
    H = with_pendant_trees(rng, subdivided(cycle_graph(6), 2), 5)
    core, trace = reduce_graph(H)
    assert trace.kind == "cycle"
    for e in core.edges:
        assert lift_tree(trace, core.edges - {e}).edges == lift_by_union(trace, core.edges - {e})


def test_single_extra_edge_gives_two():
    G = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 2)])
    k, T = solve_fes(G)
    assert k == 2


# The set-based kernelization that `reduce_graph` replaced, kept as the
# reference it must match field for field: it builds the host's adjacency
# sets, checks connectivity by a walk over the whole host, and compresses
# the chains on copies of the surviving vertices' sets.


def reference_peel_leaves(G: Graph):
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
    adj = {v: set(nbrs[v]) for v in range(G.n) if deg[v] >= 0}
    for leaf, anchor in peeled:
        if anchor in adj:
            adj[anchor].discard(leaf)
    return adj, peeled


def reference_half_chain(adj, branch, w, cur):
    inner, prev = [], w
    while cur not in branch:
        inner.append(cur)
        a, b = adj[cur]
        prev, cur = cur, b if a == prev else a
    return inner, cur


def reference_compress_chains(adj, branch):
    sections = {}
    done = set()
    for w in list(adj):
        if w in branch or w in done:
            continue
        a, b = sorted(adj[w])
        left, u = reference_half_chain(adj, branch, w, a)
        right, v = reference_half_chain(adj, branch, w, b)
        path = [u, *reversed(left), w, *right, v]
        done.update(path)
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


def reference_reduce(G: Graph):
    require_connected(G)
    adj, peeled = reference_peel_leaves(G)
    peeled = tuple(peeled)
    if len(adj) == 1:
        return Graph.from_edges(1, []), ReductionTrace(G, peeled, (), tuple(adj), "tree")
    branch = {v for v, nbrs in adj.items() if len(nbrs) >= 3}
    sections = reference_compress_chains(adj, branch) if branch else {}
    verts = list(adj)
    back = {x: i for i, x in enumerate(verts)}
    kernel_edges = {edge_key(back[x], back[y]) for x in adj for y in adj[x]}
    core = Graph.from_edges(len(verts), kernel_edges)
    as_is = tuple(((x, y), ((x, y),)) for x in adj for y in adj[x] if x < y)
    if not branch:
        return core, ReductionTrace(G, peeled, as_is, tuple(verts), "cycle")
    sections = dict(as_is) | sections
    trace = ReductionTrace(G, peeled, tuple(sorted(sections.items())), tuple(verts), "kernel")
    return core, trace


def kernelization_host(rng: random.Random, family: str) -> Graph:
    """A random host from the named family, relabelled at random, with its
    edges in random order; the first four families have at most 40 vertices."""
    edges: set = set()

    def add(u, v):
        if u != v:
            edges.add(edge_key(u, v))

    def chain(u, v, inner, n):
        """Join u to v through inner new vertices from n on; returns the next id."""
        prev = u
        for x in range(n, n + inner):
            add(prev, x)
            prev = x
        add(prev, v)
        return n + inner

    n = 0
    if family == "tree":
        n = rng.randint(1, 40)
        for v in range(1, n):
            add(v, rng.randrange(v))
    elif family == "cycle":
        n = chain(0, 0, rng.randint(2, 39), 1)
    elif family == "two cycles":
        n = chain(0, 0, rng.randint(2, 18), 1)
        n = chain(n, n, rng.randint(2, 18), n + 1)
    elif family == "tree + isolated":
        n = rng.randint(2, 40)
        for v in range(1, n - 1):
            add(v, rng.randrange(v))
    else:  # a random core whose edges become chains of 0 to 4 inner vertices
        n = rng.randint(2, 7)
        core = random_connected_graph(rng, n, rng.randint(n - 1, 2 * n))
        for u, v in core.edges:
            n = chain(u, v, rng.choice([0, 0, 1, 2, 4]), n)
        if family == "two kernels":  # a second core, disjoint from the first
            base, k = n, rng.randint(4, 6)
            n += k
            for u, v in random_connected_graph(rng, k, rng.randint(k, 2 * k)).edges:
                n = chain(base + u, base + v, rng.choice([0, 1, 3]), n)
        for _ in range(rng.randint(0, 3)):  # hanging cycles
            n = chain(*[rng.randrange(n)] * 2, rng.randint(2, 4), n)
        for _ in range(rng.randint(0, 2)):  # chains parallel to an edge
            u, v = rng.choice(sorted(edges))
            n = chain(u, v, rng.randint(1, 3), n)
        for _ in range(rng.randint(0, 8)):  # pendant trees, many on chain vertices
            add(rng.randrange(n), n)
            n += 1
        if family == "kernel + isolated":
            n += 1
    perm = list(range(n))
    rng.shuffle(perm)
    order = [edge_key(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(order)
    return Graph.from_edges(n, order)


def reduction_record(reduce, G: Graph):
    """Everything a reduction of G shows: the kernel's edge and adjacency
    iteration order and every trace field, or the error it raises."""
    try:
        core, trace = reduce(G)
    except DisconnectedGraphError as exc:
        return "error", str(exc)
    return (list(core.edges), [list(a) for a in core._adj], trace.original is G,
            [getattr(trace, f.name) for f in dataclasses.fields(trace)])


def test_reduce_graph_matches_the_set_based_reference():
    # the kernel's edge order decides the tree its bounds or the DP find, so
    # the neighbour-list kernelization must rebuild the reference's sets
    # exactly: same edges in the same order, same trace, same error
    rng = random.Random(3030)
    seen = collections.Counter()
    for family, count in (("tree", 200), ("cycle", 200), ("two cycles", 200),
                          ("tree + isolated", 200), ("kernel", 1500), ("two kernels", 300),
                          ("kernel + isolated", 200)):
        for idx in range(count):
            G = kernelization_host(rng, family)
            while G.n > 40:
                G = kernelization_host(rng, family)
            got = reduction_record(reduce_graph, G)
            want = reduction_record(reference_reduce, Graph(G.n, G.edges))
            assert got == want, f"{family} host #{idx}: n {G.n}, edges {sorted(G.edges)}"
            seen[family, got[0] if got[0] == "error" else got[3][-1]] += 1
    assert seen["kernel", "kernel"] > 1300
    assert seen["tree", "tree"] == seen["cycle", "cycle"] == 200
    assert seen["two cycles", "error"] == seen["tree + isolated", "error"] == 200
    assert seen["two kernels", "error"] == 300 and seen["kernel + isolated", "error"] == 200


def test_reduce_refuses_too_few_edges_before_building_any_list():
    # a header such as `p stc 1000000 0` must not cost one list per vertex
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedGraphError, match="^input graph is not connected$"):
            reduce_graph(Graph(10**6, frozenset({(0, 1)})))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


# -- distance to clique -------------------------------------------------------


def test_dtc_threshold_formula():
    assert small_case_threshold(1) == 6
    assert small_case_threshold(2) == 24
    assert small_case_threshold(3) == 66


def test_dtc_complete_graph_empty_modulator():
    G = complete_graph(6)
    k, T = solve_dtc(G, frozenset())
    assert k == 5
    assert congestion_report(G, T).max_congestion == 5


def test_dtc_small_case_equals_oracle():
    G = Graph.from_edges(
        6, [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5)]
    )
    k, T = solve_dtc(G, frozenset({5}))
    assert k == stc_exact(G)[0] == 4


def test_dtc_rejects_non_clique_remainder():
    with pytest.raises(GraphError):
        solve_dtc(path_graph(5), frozenset({0}))


def test_dtc_big_case_equals_oracle():
    rng = random.Random(12)
    done = 0
    while done < 4:
        # q = 1, N = 7 sits just above the small-case threshold of 6
        edges = [(i, j) for i in range(7) for j in range(i + 1, 7)]
        attach = rng.sample(range(7), rng.randint(1, 4))
        edges += [(a, 7) for a in attach]
        G = Graph.from_edges(8, edges)
        want, _ = stc_exact(G)
        got, T = solve_dtc(G, frozenset({7}))
        assert got == want
        assert congestion_report(G, T).max_congestion == got
        done += 1


def test_dtc_two_modulator_vertices_within_the_bounds():
    # q = 2 and N 25..26 sit just above the small-case threshold of 24, so
    # each graph takes the arrangement search; on 2 of the 16 the bounds
    # differ (lambda 25, the swap search's 26)
    rng = random.Random(2025)
    met = 0
    for idx in range(16):
        N = rng.randint(25, 26)
        edges = [(i, j) for i in range(N) for j in range(i + 1, N)]
        for s in (N, N + 1):
            edges += [(a, s) for a in rng.sample(range(N), rng.randint(1, 2))]
        if rng.random() < 0.5:
            edges.append((N, N + 1))
        G = Graph.from_edges(N + 2, edges)
        lam, ub, _ = bounds(G)
        k, T = solve_dtc(G, frozenset({N, N + 1}))
        assert lam <= k <= ub and congestion_report(G, T).max_congestion == k, f"graph #{idx}"
        if lam == ub:
            assert k == lam, f"graph #{idx}"
            met += 1
    assert met == 14


def test_dtc_universal_modulators_make_bigger_clique():
    # two adjacent universal modulator vertices: the graph is K_27
    edges = [(i, j) for i in range(27) for j in range(i + 1, 27)]
    G = Graph.from_edges(27, edges)
    k, T = solve_dtc(G, frozenset({25, 26}))
    assert k == 26


# The paper's closed-form bound and a tree meeting it; solve_dtc does not
# use them, so they live here with the tests that check the bound.


def dtc_bound_tree(G: Graph, S) -> SpanningTree:
    """Witness tree for stc < 2N - N/q + 2q^2 (q >= 1).

    Hub r covers every modulator vertex that dominates most of the clique;
    r's neighbors all become its children, a maximum matching pulls in as
    many remaining modulator vertices as possible, and what is left attaches
    greedily.
    """
    require_connected(G)
    S = frozenset(S)
    C = _check_modulator(G, S)
    q, N = len(S), len(C)
    if q < 1 or N < 1:
        raise GraphError("bound construction needs q >= 1 and a nonempty clique")
    big = [s for s in sorted(S) if len(G.neighbors(s) & frozenset(C)) * q > (N * q - N)]
    r = None
    for c in C:
        if all(G.has_edge(c, s) for s in big):
            r = c
            break
    assert r is not None, "counting argument guarantees a hub"
    S0 = G.neighbors(r) & S
    rest = sorted(S - S0)
    left = sorted(set(C) | S0)
    matching = _max_matching(G, left, rest)
    edges = {edge_key(r, v) for v in G.neighbors(r)}
    for a, b in matching.items():
        edges.add(edge_key(a, b))
    # attach the leftovers through any already-connected neighbor
    connected = {r} | G.neighbors(r) | set(matching) | set(matching.values())
    Z = [s for s in rest if s not in matching.values() and s not in connected]
    while Z:
        progress = False
        for z in list(Z):
            nbrs = sorted(G.neighbors(z) & frozenset(connected))
            if nbrs:
                edges.add(edge_key(z, nbrs[0]))
                connected.add(z)
                Z.remove(z)
                progress = True
        assert progress, "disconnected leftover (host not connected?)"
    return SpanningTree(G, frozenset(edges))


def _max_matching(G: Graph, left: list[int], right: list[int]) -> dict[int, int]:
    """Maximum bipartite matching on G's edges between left and right.

    Returns {left vertex: right vertex}; augmenting-path search.
    """
    match_r: dict[int, int] = {}

    def try_assign(l, seen):
        for rgt in sorted(G.neighbors(l) & frozenset(right)):
            if rgt in seen:
                continue
            seen.add(rgt)
            if rgt not in match_r or try_assign(match_r[rgt], seen):
                match_r[rgt] = l
                return True
        return False

    for l in left:
        try_assign(l, set())
    return {l: rgt for rgt, l in match_r.items()}


def dtc_congestion_bound(N: int, q: int) -> Fraction:
    """Strict upper bound 2N - N/q + 2q^2 on stc, exact rational."""
    return 2 * N - Fraction(N, q) + 2 * q * q


def test_bound_tree_pendant_modulator():
    edges = [(i, j) for i in range(9) for j in range(i + 1, 9)] + [(0, 9)]
    G = Graph.from_edges(10, edges)
    T = dtc_bound_tree(G, frozenset({9}))
    rep = congestion_report(G, T)
    assert rep.max_congestion < dtc_congestion_bound(9, 1) == 11


def test_bound_tree_single_universal_modulator():
    edges = [(i, j) for i in range(20) for j in range(i + 1, 20)]
    edges += [(i, 20) for i in range(20)]
    G = Graph.from_edges(21, edges)
    T = dtc_bound_tree(G, frozenset({20}))
    got = congestion_report(G, T).max_congestion
    assert got < dtc_congestion_bound(20, 1) == 22


def test_bound_tree_q3_random_attachments():
    rng = random.Random(13)
    N, q = 30, 3
    edges = [(i, j) for i in range(N) for j in range(i + 1, N)]
    for s in range(N, N + q):
        for c in rng.sample(range(N), rng.randint(5, N)):
            edges.append((c, s))
    edges.append((N, N + 1))
    G = Graph.from_edges(N + q, edges)
    T = dtc_bound_tree(G, frozenset(range(N, N + q)))
    got = congestion_report(G, T).max_congestion
    assert got < dtc_congestion_bound(N, q)


def test_bound_tree_large_clique_two_modulators():
    rng = random.Random(14)
    N, q = 100, 2
    edges = [(i, j) for i in range(N) for j in range(i + 1, N)]
    for s in (N, N + 1):
        for c in rng.sample(range(N), rng.randint(10, 60)):
            edges.append((c, s))
    edges.append((N, N + 1))
    G = Graph.from_edges(N + q, edges)
    T = dtc_bound_tree(G, frozenset({N, N + 1}))
    got = congestion_report(G, T).max_congestion
    bound = dtc_congestion_bound(N, q)
    assert bound == Fraction(158)
    assert got < bound


# -- vertex integrity ---------------------------------------------------------


def test_vertex_integrity_star():
    assert vertex_integrity_set(star_graph(5), 3) == frozenset({0})


def test_vertex_integrity_path9():
    S = vertex_integrity_set(path_graph(9), 6)
    assert S == frozenset({4})
    # |S| + largest remaining component: 1 + 4; no smaller cap admits a witness
    assert vertex_integrity_set(path_graph(9), 4) is None


def test_vertex_integrity_k5():
    assert vertex_integrity_set(complete_graph(5), 3) is None
    assert vertex_integrity_set(complete_graph(5), 5) == frozenset()


def test_enumerate_types_twin_singletons():
    # two isolated vertices with the same S-neighborhood: one class of two
    G = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    classes, forests = enumerate_types(G, frozenset({2, 3}))
    assert len(classes) == 1
    assert len(classes[0].members) == 2


def test_enumerate_types_single_vertex_patterns():
    # one vertex adjacent to s1 and s2: attach via either (leaf) or both
    G = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    classes, forests = enumerate_types(G, frozenset({1, 2}))
    assert len(classes) == 1
    pats = forests[0]
    assert len(pats) == 3
    assert sorted(p.leaf for p in pats) == [False, True, True]


def test_enumerate_types_asymmetric_components_split():
    # an edge component and two singleton components get distinct classes
    G = Graph.from_edges(5, [(0, 4), (1, 4), (0, 1), (2, 4), (3, 4)])
    classes, _ = enumerate_types(G, frozenset({4}))
    sizes = sorted(len(c.members) for c in classes)
    assert sizes == [1, 2]


def test_ilp_balanced_split():
    # two types feeding two edges one-sidedly: best is the 2/2 split
    z, x = ilp_minimize_max([(4, [0, 1])], [0, 0], [[1, 0], [0, 1]])
    assert z == 2 and x == (2, 2)


def test_ilp_empty_objective():
    z, x = ilp_minimize_max([(3, [0])], [], [[]])
    assert z == 0 and x == (3,)


def test_ilp_forced_and_infeasible():
    z, x = ilp_minimize_max([(5, [0])], [1], [[2]])
    assert z == 11 and x == (5,)
    with pytest.raises(ValueError):
        ilp_minimize_max([(1, [])], [0], [])


def test_modulator_range_checked_without_routing():
    G = gen_grid(4)
    for S in ({999}, {-1}):
        for call in (solve_vi, solve_dtc, enumerate_types):
            with pytest.raises(GraphError, match="modulator vertex out of range"):
                call(G, S)


def test_vi_path_is_tree():
    k, T = solve_vi(path_graph(6), frozenset({2}))
    assert k == 1


def test_vi_cycle():
    k, T = solve_vi(cycle_graph(6), frozenset({0, 3}))
    assert k == 2


def test_vi_random_equals_oracle():
    rng = random.Random(15)
    done = 0
    while done < 15:
        n = rng.randint(4, 9)
        G = random_connected_graph(rng, n, rng.randint(n - 1, n + 4))
        S = vertex_integrity_set(G, 4)
        if S is None:
            continue
        want, _ = stc_exact(G)
        got, T = solve_vi(G, S)
        assert got == want
        assert congestion_report(G, T).max_congestion == got
        done += 1


def bipartite_plus_bridge(t: int) -> Graph:
    """K_{2,t} plus the edge between the two high-degree vertices."""
    edges = [(0, 1)] + [(0, 2 + i) for i in range(t)] + [(1, 2 + i) for i in range(t)]
    return Graph.from_edges(t + 2, edges)


def test_vi_signature_path_matches_oracle():
    # stc = t + 1 = 9 reaches k^2 with k = 3, so the precheck hands over to
    # the type/ILP machinery
    G = bipartite_plus_bridge(8)
    S = vertex_integrity_set(G, 3)
    assert S == frozenset({0, 1})
    want, _ = stc_exact(G)
    got, T = solve_vi(G, S)
    assert got == want == 9
    assert congestion_report(G, T).max_congestion == 9


def test_vi_enumerates_only_from_k_squared_on(monkeypatch):
    # S = {0, 1} gives k = 3: stc = 8 stays with the DP driver, stc = 9 = k^2
    # needs the type enumeration
    calls = []
    real = stc.structural.vi.enumerate_types

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stc.structural.vi, "enumerate_types", spy)
    for t, enumerated in [(7, False), (8, True)]:
        calls.clear()
        G = bipartite_plus_bridge(t)
        got, T = solve_vi(G, frozenset({0, 1}))
        assert got == t + 1 == congestion_report(G, T).max_congestion
        assert bool(calls) == enumerated


def test_vi_signature_path_larger_instance():
    G = bipartite_plus_bridge(16)
    got, T = solve_vi(G, frozenset({0, 1}))
    assert got == 17
    assert congestion_report(G, T).max_congestion == 17


def test_vi_nonleaf_components_bounded():
    G = bipartite_plus_bridge(8)
    S = frozenset({0, 1})
    _, T = solve_vi(G, S)
    nonleaf = 0
    for comp in _components(G, S):
        out = sum(1 for e in T.edges if (e[0] in comp) != (e[1] in comp))
        if out >= 2:
            nonleaf += 1
    assert nonleaf <= len(S) - 1


def _detour_counts(tree_edges, verts, graph_edges, counted):
    """Reference for vi._count_uses: walk each graph edge's tree path and
    count the counted tree edges it crosses."""
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for u, v in tree_edges:
        adj[u].append(v)
        adj[v].append(u)
    rootv = min(verts)
    parent = {rootv: rootv}
    depth = {rootv: 0}
    stack = [rootv]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                depth[u] = depth[v] + 1
                stack.append(u)
    assert len(parent) == len(verts), "overlay is not connected"
    pos = {e: i for i, e in enumerate(counted)}
    out = [0] * len(counted)
    for u, v in graph_edges:
        a, w = u, v
        while a != w:
            if depth[a] < depth[w]:
                a, w = w, a
            e = edge_key(a, parent[a])
            if e in pos:
                out[pos[e]] += 1
            a = parent[a]
    return out


def test_count_uses_matches_a_detour_walk():
    rng = random.Random(41)
    for _ in range(200):
        verts = rng.sample(range(40), rng.randint(2, 12))
        tree = [edge_key(v, rng.choice(verts[:i])) for i, v in enumerate(verts) if i]
        pairs = [edge_key(u, v) for i, u in enumerate(verts) for v in verts[:i]]
        graph_edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        counted = rng.sample(tree, rng.randint(0, len(tree)))
        got = stc.structural.vi._count_uses(tree, set(verts), graph_edges, counted)
        assert got == _detour_counts(tree, set(verts), graph_edges, counted)


def pairs_and_singletons(paths: int, full: int, single: int) -> Graph:
    """Modulator {0, 1} with three component classes: edges a-b joined as
    0-a-b-1, edges a-b with both ends joined to 0 and 1, and single vertices
    joined to 0 and 1; plus the edge 0-1."""
    edges = [(0, 1)]
    n = 2
    for _ in range(paths):
        edges += [(0, n), (n, n + 1), (n + 1, 1)]
        n += 2
    for _ in range(full):
        edges += [(0, n), (n, n + 1), (n + 1, 1), (0, n + 1), (n, 1)]
        n += 2
    for _ in range(single):
        edges += [(0, n), (n, 1)]
        n += 1
    return Graph.from_edges(n, edges)


def test_vi_ilp_coefficients_on_two_vertex_components(monkeypatch):
    # k = |S| + 2 = 4 and stc = 16 = k^2, so the ILP phase runs, on overlays
    # that hold two-vertex components
    calls = []
    real = stc.structural.vi._count_uses

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stc.structural.vi, "_count_uses", spy)
    G = pairs_and_singletons(8, 2, 3)
    got, T = solve_vi(G, frozenset({0, 1}))
    assert got == solve_stc_tw(G)[0] == 16 == congestion_report(G, T).max_congestion
    assert any(len(verts) > 3 for _, verts, _, _ in calls)
    for args in calls:
        assert real(*args) == _detour_counts(*args)


def _s_fixing_automorphisms(G: Graph, S: frozenset[int], comp):
    """Reference: every bijection of comp that keeps its internal edges and
    each vertex's S-neighborhood."""
    internal = {e for e in G.edges if e[0] in comp and e[1] in comp}
    autos = []
    for perm in itertools.permutations(comp):
        m = dict(zip(comp, perm))
        if any(G.neighbors(v) & S != G.neighbors(m[v]) & S for v in comp):
            continue
        if {edge_key(m[u], m[v]) for u, v in internal} != internal:
            continue
        autos.append(m)
    return autos


def test_canonical_component_returns_every_s_fixing_automorphism():
    rng = random.Random(29)
    graphs = [pairs_and_singletons(1, 1, 1), complete_graph(5), cycle_graph(6)]
    for _ in range(20):
        n = rng.randint(5, 9)
        graphs.append(random_connected_graph(rng, n, rng.randint(n - 1, 2 * n)))
    for G in graphs:
        S = frozenset(rng.sample(range(G.n), 2))
        for comp in _components(G, S):
            comp = sorted(comp)
            *_, autos = stc.structural.vi._canonical_component(G, S, comp)
            want = _s_fixing_automorphisms(G, S, comp)
            assert sorted(map(sorted, map(dict.items, autos))) == sorted(
                map(sorted, map(dict.items, want))
            )


def _components(G: Graph, S: frozenset[int]):
    from stc.graph import connected_components

    return [set(c) for c in connected_components(G, skip=S)]


def test_signature_sufficiency_two_orderings():
    # one optimal signature, two member orderings: distinct trees, equal cost
    G = bipartite_plus_bridge(8)
    S = frozenset({0, 1})
    classes, forests = enumerate_types(G, S)
    assert len(classes) == 1
    pats = forests[0]
    via = {}
    for j, p in enumerate(pats):
        if p.leaf:
            (edge,) = p.edges
            s = edge[0] if edge[0] in S else edge[1]
            via[s] = j
    sig = Signature(frozenset({(0, 1)}), ((0, via[0], 4), (0, via[1], 4)))
    T1 = tree_from_signature(G, classes, forests, sig)
    # the same class with its members (and their isomorphisms) in reverse order
    reversed_classes = [
        ComponentType(c.members[::-1], c.isos[::-1], c.autos) for c in classes
    ]
    T2 = tree_from_signature(G, reversed_classes, forests, sig)
    assert T1.edges != T2.edges
    c1 = congestion_report(G, T1).max_congestion
    c2 = congestion_report(G, T2).max_congestion
    assert c1 == c2 == 9
