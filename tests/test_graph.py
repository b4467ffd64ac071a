from __future__ import annotations

import random

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
    DoubleWeightedGraph,
    Graph,
    SpanningTree,
    congestion_report,
    congestion_report_by_detours,
    edge_key,
    find_biclique,
    twin_classes,
)
from stc.oracle import enumerate_spanning_trees, stc_exact


def test_graph_construction_rejects_garbage():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 5)])


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
        assert rep.total == total


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
