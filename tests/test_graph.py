from __future__ import annotations

import itertools
import random
import re

import pytest

from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from stc.errors import GraphError, InvalidSpanningTreeError
from stc.graph import (
    CongestionReport,
    DoubleWeightedGraph,
    Graph,
    SpanningTree,
    _edge_loads,
    _max_load,
    congestion_report,
    connected_components,
    edge_key,
    find_biclique,
    twin_classes,
)
from stc.oracle import enumerate_spanning_trees, stc_exact


def congestion_report_by_detours(G, T) -> CongestionReport:
    """Reference evaluator, quadratic: route every edge's detour explicitly."""
    if isinstance(G, DoubleWeightedGraph):
        base, wt1, wt2 = G.base, G.wt1, G.wt2
    else:
        base = G
        wt1 = wt2 = {e: 1 for e in G.edges}
    edges = T.edges if isinstance(T, SpanningTree) else T
    tree_edges = SpanningTree(base, frozenset(edge_key(*e) for e in edges)).edges
    adj = {v: [] for v in range(base.n)}
    for u, v in tree_edges:
        adj[u].append(v)
        adj[v].append(u)
    parent, depth = {0: None}, {0: 0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in parent:
                parent[u], depth[u] = v, depth[v] + 1
                stack.append(u)
    per_edge = {e: wt2[e] for e in tree_edges}
    for e in base.edges:
        if e in tree_edges:
            continue
        x, y = e
        while x != y:
            if depth[x] < depth[y]:
                x, y = y, x
            per_edge[edge_key(x, parent[x])] += wt1[e]
            x = parent[x]
    return CongestionReport(per_edge, max(per_edge.values(), default=0))


def test_graph_construction_rejects_garbage():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 5)])


def spanning_tree_violation_by_union_find(G, tree_edges) -> str | None:
    """Reference check: union-find over the tree edges, messages as the library's."""
    edges = set(tree_edges)
    if not edges <= G.edges:
        return f"edge {min(edges - G.edges)} not in the graph"
    if len(edges) != G.n - 1:
        return f"{len(edges)} edges, a spanning tree needs {G.n - 1}"
    parent = list(range(G.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return f"edge ({u}, {v}) closes a cycle"
        parent[ru] = rv
    return None


def test_graph_checks_its_edges_at_construction_and_builds_adjacency_on_first_use():
    for bad, msg in (
        (5, "bad edge 5"),
        ((0, 1, 2), "bad edge"),
        ((2, 1), "out of range or not normalized"),
        ((1, 3), "out of range or not normalized"),
    ):
        with pytest.raises(GraphError, match=msg):
            Graph(3, frozenset({(0, 1), bad}))
    rng = random.Random(809)
    for _ in range(20):
        n = rng.randint(1, 12)
        G = random_connected_graph(rng, n, rng.randint(n - 1, 2 * n))
        assert "_adj" not in vars(G)
        # one set per vertex, filled in edge order, then frozen
        sets = [set() for _ in range(n)]
        for u, v in G.edges:
            sets[u].add(v)
            sets[v].add(u)
        assert [list(G.neighbors(v)) for v in range(n)] == [list(frozenset(s)) for s in sets]
        assert "_adj" in vars(G) and G.degree(n - 1) == len(sets[n - 1])


def test_spanning_tree_check_agrees_with_union_find_on_random_edge_sets():
    rng = random.Random(810)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 12)
        G = random_connected_graph(rng, n, rng.randint(n - 1, 2 * n))
        pool = sorted(G.edges)
        size = n - 1 if rng.random() < 0.8 else rng.randint(0, len(pool))
        edges = set(rng.sample(pool, min(size, len(pool))))
        missing = [e for e in itertools.combinations(range(n), 2) if e not in G.edges]
        if missing and rng.random() < 0.1:
            edges.add(rng.choice(missing))
        want = spanning_tree_violation_by_union_find(G, edges)
        verdicts.add(want is None or next(w for w in ("graph", "needs", "cycle") if w in want))
        try:
            T = SpanningTree(G, edges)
        except InvalidSpanningTreeError as exc:
            assert str(exc) == want
            # a plain edge list is frozen as the library freezes it, and the
            # edge named for a cycle follows that set's order
            listed = sorted(edges)
            want = spanning_tree_violation_by_union_find(
                G, frozenset(edge_key(*e) for e in listed))
            with pytest.raises(InvalidSpanningTreeError, match=re.escape(want)):
                congestion_report(G, listed)
        else:
            assert want is None
            assert congestion_report(G, T).per_edge == congestion_report_by_detours(G, T).per_edge
    assert verdicts == {True, "graph", "needs", "cycle"}  # every verdict was met


def test_is_connected_agrees_with_connected_components():
    # connected draws, draws that cut off one vertex or a whole block, and
    # sparse draws that fall apart on their own, relabelled so that vertex 0,
    # where the walk starts, lies anywhere
    rng = random.Random(811)
    verdicts = []
    for i in range(300):
        n = rng.randint(1, 30)
        if i % 3 == 0:
            edges = random_connected_graph(rng, n, rng.randint(n - 1, 2 * n)).edges
        elif i % 3 == 1 and n > 1:
            b = 1 if rng.random() < 0.5 else rng.randint(1, n - 1)  # vertices cut off
            a = n - b
            edges = random_connected_graph(rng, a, rng.randint(a - 1, 2 * a)).edges | {
                (u + a, v + a) for u, v in random_connected_graph(rng, b, 2 * b).edges}
        else:
            pairs = list(itertools.combinations(range(n), 2))
            edges = rng.sample(pairs, min(len(pairs), rng.randint(0, n)))
        perm = list(range(n))
        rng.shuffle(perm)
        G = Graph(n, frozenset(edge_key(perm[u], perm[v]) for u, v in edges))
        verdicts.append(G.is_connected())
        assert verdicts[-1] == (len(connected_components(G)) == 1)
    assert 100 < verdicts.count(True) < 200  # both verdicts are well represented


def test_star_congestion_is_leaf_degrees():
    # in a star every tree edge is a leaf edge, congestion = degree of the leaf
    G = star_graph(4)
    rep = congestion_report(G, G.edges)
    assert rep.max_congestion == 1
    assert all(v == 1 for v in rep.per_edge.values())


def test_cycle_path_tree_congestion_two():
    G = cycle_graph(4)
    tree = [(0, 1), (1, 2), (2, 3)]
    rep = congestion_report(G, tree)
    # the chord (0,3) rides every tree edge
    assert rep.per_edge == {(0, 1): 2, (1, 2): 2, (2, 3): 2}
    assert rep.max_congestion == 2


def test_k4_star_tree():
    G = complete_graph(4)
    rep = congestion_report(G, [(0, 1), (0, 2), (0, 3)])
    # each edge of the triangle 1-2-3 detours over two star edges
    assert rep.max_congestion == 3
    assert sorted(rep.per_edge.values()) == [3, 3, 3]


def test_leaf_edge_rule():
    # congestion of a leaf edge equals the graph degree of the leaf
    G = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 4)])
    tree = [(0, 1), (1, 2), (2, 3), (2, 4)]
    rep = congestion_report(G, tree)
    assert rep.per_edge[(2, 4)] == G.degree(4)


def test_grid_optimal_congestion_three():
    G = grid_graph(3)
    k, T = stc_exact(G)
    assert k == 3
    assert congestion_report(G, T).max_congestion == 3


def test_fast_matches_detour_reference_random():
    rng = random.Random(801)
    for _ in range(60):
        n = rng.randint(3, 10)
        G = random_connected_graph(rng, n, rng.randint(n - 1, min(14, n * (n - 1) // 2)))
        tree = next(enumerate_spanning_trees(G))
        fast = congestion_report(G, tree)
        slow = congestion_report_by_detours(G, tree)
        assert fast.per_edge == slow.per_edge
        assert fast.max_congestion == slow.max_congestion


def test_detour_sum_identity():
    # unweighted: total congestion equals the sum of all detour lengths
    rng = random.Random(802)
    for _ in range(20):
        G = random_connected_graph(rng, 8, rng.randint(7, 14))
        tree = next(enumerate_spanning_trees(G))
        rep = congestion_report(G, tree)
        parent = {0: None}
        depth = {0: 0}
        adj = {v: [] for v in range(G.n)}
        for u, v in tree:
            adj[u].append(v)
            adj[v].append(u)
        stack = [0]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in parent:
                    parent[u] = v
                    depth[u] = depth[v] + 1
                    stack.append(u)
        total = 0
        for a, b in G.edges:
            x, y = a, b
            while x != y:
                if depth[x] < depth[y]:
                    x, y = y, x
                x = parent[x]
                total += 1
        assert sum(rep.per_edge.values()) == total


def test_weighted_congestion_matches_reference():
    rng = random.Random(803)
    for _ in range(30):
        G = random_connected_graph(rng, 7, rng.randint(6, 12))
        wt1 = {e: rng.randint(1, 4) for e in G.edges}
        wt2 = {e: rng.randint(1, 6) for e in G.edges}
        Gw = DoubleWeightedGraph(G, wt1, wt2)
        tree = next(enumerate_spanning_trees(G))
        assert (
            congestion_report(Gw, tree).per_edge
            == congestion_report_by_detours(Gw, tree).per_edge
        )


def test_double_weight_rule_tiny():
    # triangle, tree = {01, 12}; edge (0,2) contributes wt1 to both tree edges
    G = complete_graph(3)
    Gw = DoubleWeightedGraph(
        G, {(0, 1): 5, (0, 2): 7, (1, 2): 1}, {(0, 1): 2, (0, 2): 9, (1, 2): 3}
    )
    rep = congestion_report(Gw, [(0, 1), (1, 2)])
    assert rep.per_edge == {(0, 1): 2 + 7, (1, 2): 3 + 7}


def test_congestion_rejects_non_tree():
    G = cycle_graph(4)
    with pytest.raises(InvalidSpanningTreeError):
        congestion_report(G, [(0, 1), (1, 2), (0, 3), (2, 3)])
    with pytest.raises(InvalidSpanningTreeError):
        congestion_report(G, [(0, 1), (1, 2)])
    with pytest.raises(InvalidSpanningTreeError):
        SpanningTree(G, frozenset({(0, 1), (0, 2), (2, 3)}))


def test_tree_report_is_measured_once_and_matches_a_fresh_one():
    rng = random.Random(806)
    for _ in range(30):
        n = rng.randint(2, 12)
        G = random_connected_graph(rng, n, rng.randint(n - 1, 20))
        T = SpanningTree(G, next(enumerate_spanning_trees(G)))
        rep = congestion_report(G, T)
        assert congestion_report(G, T) is rep
        one = {e: 1 for e in G.edges}
        assert rep.per_edge == _edge_loads(G, one, one, T.edges)
        assert rep.per_edge == congestion_report_by_detours(G, T).per_edge
        assert rep.max_congestion == max(rep.per_edge.values())


def test_kept_report_serves_only_its_own_unweighted_host():
    rng = random.Random(807)
    for _ in range(30):
        G = random_connected_graph(rng, 8, rng.randint(8, 14))
        T = SpanningTree(G, next(enumerate_spanning_trees(G)))
        unit = congestion_report(G, T)
        # the same edge weights on a weighted view of the host
        Gw = DoubleWeightedGraph(
            G, {e: rng.randint(2, 4) for e in G.edges}, {e: rng.randint(1, 5) for e in G.edges}
        )
        rep = congestion_report(Gw, T)
        assert rep is not unit
        assert rep.per_edge == congestion_report_by_detours(Gw, T).per_edge
        # an equal graph that is another object is measured afresh
        twin = Graph(G.n, G.edges)
        assert congestion_report(twin, T) is not unit
        assert congestion_report(twin, T).per_edge == unit.per_edge
        # a host with one more edge gives a different report
        missing = [
            (u, v) for u in range(G.n) for v in range(u + 1, G.n) if (u, v) not in G.edges
        ]
        H = Graph(G.n, G.edges | {rng.choice(missing)})
        assert congestion_report(H, T).per_edge == congestion_report_by_detours(H, T).per_edge
        assert sum(congestion_report(H, T).per_edge.values()) > sum(unit.per_edge.values())
        assert congestion_report(G, T) is unit


def test_tree_on_another_host_is_validated_against_it():
    T = SpanningTree(cycle_graph(4), frozenset({(0, 1), (1, 2), (2, 3)}))
    with pytest.raises(InvalidSpanningTreeError):
        congestion_report(Graph(4, frozenset({(0, 1), (1, 2), (0, 3)})), T)
    assert congestion_report(path_graph(4), T).max_congestion == 1


def test_max_load_equals_the_largest_edge_load():
    rng = random.Random(808)
    assert _max_load(Graph(1, frozenset()), {}, None, frozenset()) == 0
    assert _max_load(Graph(1, frozenset()), {}, {}, frozenset()) == 0
    for _ in range(40):
        n = rng.randint(2, 10)
        G = random_connected_graph(rng, n, rng.randint(n - 1, 16))
        one = {e: 1 for e in G.edges}
        wt1 = {e: rng.randint(1, 4) for e in G.edges}
        wt2 = {e: rng.randint(1, 6) for e in G.edges}
        for tree in enumerate_spanning_trees(G):
            assert _max_load(G, one, None, tree) == max(_edge_loads(G, one, one, tree).values())
            assert _max_load(G, wt1, wt2, tree) == max(_edge_loads(G, wt1, wt2, tree).values())
            break


def test_spanning_tree_edges_are_frozen():
    G = cycle_graph(4)
    T = SpanningTree(G, {(0, 1), (1, 2), (2, 3)})
    assert isinstance(T.edges, frozenset)
    assert T == SpanningTree(G, frozenset({(0, 1), (1, 2), (2, 3)}))


def test_twin_classes_k5_empty_s():
    assert twin_classes(complete_graph(5), set()) == [[0, 1, 2, 3, 4]]


def test_twin_classes_clique_probe():
    # K_4 plus a pendant on 0: probing with S={0} splits N(v) & S
    G = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
    assert twin_classes(G, {0}) == [[1, 2, 3, 4]]
    assert twin_classes(G, {0, 1}) == [[2, 3], [4]]


def test_twin_refinement():
    rng = random.Random(804)
    for _ in range(25):
        G = random_connected_graph(rng, 8, rng.randint(7, 16))
        S = set(rng.sample(range(8), rng.randint(0, 3)))
        S2 = S | set(rng.sample(range(8), rng.randint(0, 3)))
        coarse = {
            frozenset(c) for c in twin_classes(G, S)
        }
        for cls in twin_classes(G, S2):
            # each refined class sits inside one coarse class
            hosts = [c for c in coarse if set(cls) <= c]
            assert len(hosts) == 1


def test_find_biclique():
    assert find_biclique(complete_bipartite(3, 3), 3) == ((0, 1, 2), (3, 4, 5))
    assert find_biclique(path_graph(5), 2) is None
    # K_5 contains K_{2,2} as a subgraph (sides need not be independent)
    assert find_biclique(complete_graph(5), 2) is not None
    assert find_biclique(complete_graph(5), 3) is None


def test_biclique_lower_bound():
    A, B = find_biclique(complete_bipartite(4, 4), 4)
    assert len(A) == len(B) == 4
    assert find_biclique(path_graph(6), 2) is None
    assert find_biclique(path_graph(6), 1) is not None


def test_lower_bound_never_beats_oracle():
    # a K_{t,t} subgraph means stc >= t
    rng = random.Random(805)
    for _ in range(20):
        G = random_connected_graph(rng, 7, rng.randint(6, 14))
        k, _ = stc_exact(G)
        for t in range(1, 4):
            if find_biclique(G, t) is not None:
                assert t <= k
