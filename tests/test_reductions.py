from __future__ import annotations

import pytest

from stc.errors import GraphError
from stc.graph import (
    DoubleWeightedGraph,
    Graph,
    SpanningTree,
    congestion_report,
    connected_components,
    edge_key,
)
from stc.oracle import enumerate_spanning_trees, stc_exact
from stc.reductions import (
    expand_double_weighted,
    expand_single_weighted,
    gen_3partition,
    gen_bsat,
    gen_grid,
    gen_ubp,
    grid_corners,
)
from witness import InvalidCertificateError, comb_edges, witness_tree, witness_tree_weighted

DEMO = [[1, -2, 3], [1, 2, -3], [-1, -2, 3], [-1, 2, -3]]


def swap_edges(T: SpanningTree, drop, add) -> SpanningTree:
    edges = set(T.edges)
    for e in drop:
        edges.remove(edge_key(*e))
    for e in add:
        edges.add(edge_key(*e))
    return SpanningTree(T.host, frozenset(edges))


# -- grids and comb trees -----------------------------------------------------


def grid_comb_tree(n: int) -> SpanningTree:
    """Comb spanning tree of the n x n grid with max congestion exactly n.

    The spine runs along the middle row, so every tooth edge cuts off at
    most (n-1)/2 vertices of one column; that needs n odd (or n = 2, where
    the single-vertex halves are small enough anyway).
    """
    if n != 2 and n % 2 == 0:
        raise GraphError("comb tree needs n = 2 or odd n")
    return SpanningTree(gen_grid(n), frozenset(comb_edges(n, 0)))


def test_grid_shape():
    G = gen_grid(3)
    assert G.n == 9 and G.m == 12
    assert grid_corners(3) == (0, 2, 6, 8)
    with pytest.raises(GraphError):
        gen_grid(1)


def test_comb_tree_congestion_exact():
    for n in (2, 3, 5, 7):
        T = grid_comb_tree(n)
        assert congestion_report(gen_grid(n), T).max_congestion == n


def test_comb_tree_rejects_even_sides():
    with pytest.raises(GraphError):
        grid_comb_tree(4)


def test_small_grids_force_side_length():
    # every spanning tree pays at least n somewhere; the comb meets it
    for n in (2, 3):
        G = gen_grid(n)
        best = min(
            congestion_report(G, T).max_congestion
            for T in enumerate_spanning_trees(G)
        )
        assert best == n


# -- weighted edge expansions -------------------------------------------------


def test_expand_single_all_unit_is_identity():
    base = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    Gw = DoubleWeightedGraph.single(base, {e: 1 for e in base.edges})
    H, emap = expand_single_weighted(Gw)
    assert H == base and emap["middles"] == {}


def test_expand_single_weight_three_edge():
    base = Graph.from_edges(2, [(0, 1)])
    Gw = DoubleWeightedGraph.single(base, {(0, 1): 3})
    H, emap = expand_single_weighted(Gw)
    assert H.n == 4 and H.m == 5
    assert emap["middles"] == {(0, 1): [2, 3]}
    assert stc_exact(Gw)[0] == stc_exact(H)[0] == 3


def test_expand_single_triangle_weight_two():
    base = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    Gw = DoubleWeightedGraph.single(base, {e: 2 for e in base.edges})
    H, emap = expand_single_weighted(Gw)
    assert H.n == 6 and H.m == 9
    assert stc_exact(Gw)[0] == stc_exact(H)[0]


def test_expand_single_rejects_split_weights():
    base = Graph.from_edges(2, [(0, 1)])
    Gw = DoubleWeightedGraph(base, {(0, 1): 1}, {(0, 1): 2})
    with pytest.raises(GraphError):
        expand_single_weighted(Gw)


def test_gadget_expansion_shape():
    base = Graph.from_edges(2, [(0, 1)])
    Gw = DoubleWeightedGraph(base, {(0, 1): 3}, {(0, 1): 5})
    H, emap = expand_double_weighted(Gw, 6)
    gad = emap["gadgets"][(0, 1)]
    assert gad["g"] == 3 and len(gad["copies"]) == 3
    assert H.n == 2 + 3 * 9
    # endpoint degree rises by wt1 - 1 relative to the weighted host
    assert H.degree(0) == H.degree(1) == 3
    assert all(H.degree(v) <= 4 for v in range(2, H.n))


def test_gadget_expansion_keeps_unit_edges():
    base = Graph.from_edges(3, [(0, 1), (1, 2)])
    Gw = DoubleWeightedGraph(base, {(0, 1): 1, (1, 2): 1}, {(0, 1): 1, (1, 2): 2})
    H, emap = expand_double_weighted(Gw, 3)
    assert (0, 1) in H.edges and (1, 2) not in H.edges
    assert list(emap["gadgets"]) == [(1, 2)]


def test_gadget_expansion_rejects_bad_weights():
    base = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(GraphError):
        expand_double_weighted(DoubleWeightedGraph(base, {(0, 1): 2}, {(0, 1): 2}), 6)
    with pytest.raises(GraphError):
        expand_double_weighted(DoubleWeightedGraph(base, {(0, 1): 2}, {(0, 1): 6}), 6)


def test_gadget_expansion_preserves_small_decision():
    base = Graph.from_edges(2, [(0, 1)])
    Gw = DoubleWeightedGraph(base, {(0, 1): 1}, {(0, 1): 2})
    H, _ = expand_double_weighted(Gw, 3)
    k = 3
    assert (stc_exact(Gw)[0] <= k) == (stc_exact(H)[0] <= k)


# -- unary bin packing --------------------------------------------------------


def test_ubp_constants():
    b = gen_ubp(3, [1] * 6)
    assert b.k == 20
    assert b.provenance["B"] == 2
    assert len(b.annotations["Q"]) == 3
    r, Q = b.annotations["r"], b.annotations["Q"]
    for q in Q:
        e = edge_key(q, r)
        assert b.weighted.wt1[e] == b.weighted.wt2[e] == 12


def test_ubp_input_validation():
    with pytest.raises(GraphError):
        gen_ubp(2, [1, 1])
    with pytest.raises(GraphError):
        gen_ubp(3, [1] * 7)
    with pytest.raises(GraphError):
        gen_ubp(3, [1, 0, 1, 1, 1, 2])
    with pytest.raises(GraphError):
        gen_ubp(3, [1] * 6, family="paths")


def test_ubp_blocks_detach_without_hubs():
    b = gen_ubp(3, [2, 2, 2, 1, 1, 1, 1, 1, 1])
    skip = frozenset(b.annotations["Q"]) | {b.annotations["r"]}
    comps = connected_components(b.weighted.base, skip=skip)
    assert sorted(sorted(c) for c in comps) == sorted(b.annotations["blocks"])


def test_ubp_witness_exact_and_perturbed():
    b = gen_ubp(3, [1] * 6)
    cert = [[0, 1], [2, 3], [4, 5]]
    T = witness_tree(b, cert)
    rep = congestion_report(b.graph, T)
    assert rep.max_congestion == b.k == 20
    r, Q, blocks = b.annotations["r"], b.annotations["Q"], b.annotations["blocks"]
    for q in Q:
        assert rep.per_edge[edge_key(q, r)] == 20
    # moving one unit item off its bin overloads a hub edge by (t-2)*a_i
    u = blocks[0][0]
    P = swap_edges(T, [(u, Q[0])], [(u, Q[1])])
    assert congestion_report(b.graph, P).max_congestion == 21


def test_ubp_clique_family_witness_exact():
    b = gen_ubp(3, [2] * 6, family="cliques")
    assert b.k == 40
    T = witness_tree(b, [[0, 1], [2, 3], [4, 5]])
    assert congestion_report(b.graph, T).max_congestion == 40


def test_ubp_certificate_validation():
    b = gen_ubp(3, [1] * 6)
    with pytest.raises(InvalidCertificateError):
        witness_tree(b, [[0, 1], [2, 3]])
    with pytest.raises(InvalidCertificateError):
        witness_tree(b, [[0, 1], [2, 3], [4, 4]])
    with pytest.raises(InvalidCertificateError):
        witness_tree(b, [[0, 1, 2], [3], [4, 5]])


# -- 3-partition --------------------------------------------------------------


def test_3partition_constants():
    b = gen_3partition([4] * 9, 12)
    assert b.provenance["M"] == 96 and b.k == 144
    assert len(b.annotations["C"]) == 96
    modules = b.annotations["modules"]
    flat = sorted(v for mod in modules for v in mod)
    assert flat == list(range(b.graph.n))


def test_3partition_input_validation():
    with pytest.raises(GraphError):
        gen_3partition([4] * 8, 12)
    with pytest.raises(GraphError):
        gen_3partition([4] * 6, 8)
    with pytest.raises(GraphError):
        gen_3partition([4] * 9, 13)
    with pytest.raises(GraphError):
        gen_3partition([6, 4, 4, 4, 4, 4, 2, 4, 4], 12)


def test_3partition_witness_exact_and_perturbed():
    b = gen_3partition([4] * 9, 12)
    cert = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    T = witness_tree(b, cert)
    rep = congestion_report(b.graph, T)
    assert rep.max_congestion == 144
    hub, Q, blocks = b.annotations["C"][0], b.annotations["Q"], b.annotations["blocks"]
    for q in Q:
        assert rep.per_edge[edge_key(hub, q)] == 144
    moved = blocks[0]
    P = swap_edges(T, [(u, Q[0]) for u in moved], [(u, Q[1]) for u in moved])
    assert congestion_report(b.graph, P).max_congestion == 144 + 4


def test_3partition_certificate_validation():
    b = gen_3partition([4] * 9, 12)
    with pytest.raises(InvalidCertificateError):
        witness_tree(b, [[0, 1, 2, 3], [4, 5], [6, 7, 8]])


# -- bounded-occurrence SAT ---------------------------------------------------


def test_bsat_constants_and_degrees():
    b = gen_bsat(DEMO)
    assert b.k == 11
    G = b.graph
    assert (G.n, G.m) == (1592, 2776)
    degs = [G.degree(v) for v in range(G.n)]
    assert max(degs) == 8
    for yv in b.annotations["y"]:
        assert G.degree(yv) == 8
    for xv in b.annotations["x"] + b.annotations["xbar"]:
        assert G.degree(xv) == 7
    for cv in b.annotations["clauses"]:
        assert G.degree(cv) == 3


def test_bsat_shape_validation():
    with pytest.raises(GraphError):
        gen_bsat(DEMO[:2])
    with pytest.raises(GraphError):
        gen_bsat([[1, 1, 2]] + DEMO[1:])
    with pytest.raises(GraphError):
        gen_bsat([[1, 0, 2]] + DEMO[1:])
    # variable 1 drops to a single positive occurrence
    with pytest.raises(GraphError):
        gen_bsat([[2, -1, 3]] + DEMO[1:])


def test_bsat_weighted_witness_exact():
    b = gen_bsat(DEMO)
    alpha = [True, True, True]
    T = witness_tree_weighted(b, alpha)
    rep = congestion_report(b.weighted, T)
    assert rep.max_congestion == 11
    ann = b.annotations
    for i in range(3):
        assert rep.per_edge[edge_key(ann["x"][i], ann["y"][i])] == 11
        assert rep.per_edge[edge_key(ann["y"][i], ann["xbar"][i])] == 11
    for cv in ann["clauses"]:
        (attach,) = [e for e in T.edges if cv in e]
        assert rep.per_edge[attach] == 11


def test_bsat_expanded_witness_exact():
    b = gen_bsat(DEMO)
    T = witness_tree(b, [True, True, True])
    assert congestion_report(b.graph, T).max_congestion == 11


def test_bsat_flip_perturbation_overloads():
    b = gen_bsat(DEMO)
    alpha = [True, True, True]
    ann = b.annotations
    # clause 0 attaches to x_1; rehoming z_1 to the false side strands the
    # clause edges across the x_1 cut
    x1, xbar1, z1 = ann["x"][0], ann["xbar"][0], ann["z"][0]
    Tw = witness_tree_weighted(b, alpha)
    Pw = swap_edges(Tw, [(x1, z1)], [(xbar1, z1)])
    assert congestion_report(b.weighted, Pw).max_congestion == 13
    Te = witness_tree(b, alpha)
    Pe = swap_edges(Te, [(x1, z1)], [(xbar1, z1)])
    assert congestion_report(b.graph, Pe).max_congestion > 11


def test_bsat_certificate_validation():
    b = gen_bsat(DEMO)
    with pytest.raises(InvalidCertificateError):
        witness_tree(b, [True, True])
    with pytest.raises(InvalidCertificateError):
        witness_tree(b, [False, True, False])
