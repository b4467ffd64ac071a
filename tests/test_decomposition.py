from __future__ import annotations

import random

import pytest

from conftest import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
)
from dp_checks import subtree_heights
from stc.decomposition import (
    TreeDecomposition,
    decompose,
    make_nice,
    validate_nice,
    validate_td,
)
from stc.errors import DisconnectedGraphError
from stc.graph import Graph


def brute_force_width(G: Graph) -> int:
    """Independent check: try every elimination order (n <= 7)."""
    import itertools

    best = G.n
    for order in itertools.permutations(range(G.n)):
        adj = [set(G.neighbors(v)) for v in range(G.n)]
        alive = set(range(G.n))
        w = 0
        for v in order:
            nb = adj[v] & alive
            w = max(w, len(nb))
            if w >= best:
                break
            for a in nb:
                for b in nb:
                    if a < b:
                        adj[a].add(b)
                        adj[b].add(a)
            alive.remove(v)
        best = min(best, w)
    return best


def test_tree_width_one():
    td = decompose(path_graph(6), "exact_small")
    assert validate_td(path_graph(6), td) is None
    assert td.width == 1


def test_cycle_width_two():
    td = decompose(cycle_graph(5), "exact_small")
    assert validate_td(cycle_graph(5), td) is None
    assert td.width == 2


def test_grid_width_three_exact():
    G = grid_graph(3)
    td = decompose(G, "exact_small")
    assert validate_td(G, td) is None
    assert td.width == 3


def test_exact_matches_bruteforce():
    rng = random.Random(821)
    for _ in range(15):
        n = rng.randint(3, 7)
        G = random_connected_graph(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
        td = decompose(G, "exact_small")
        assert validate_td(G, td) is None
        assert td.width == brute_force_width(G)


def test_exact_small_refuses_large():
    with pytest.raises(ValueError):
        decompose(path_graph(13), "exact_small")


def test_heuristic_valid_and_not_crazy():
    rng = random.Random(822)
    for _ in range(10):
        n = rng.randint(4, 16)
        G = random_connected_graph(rng, n, rng.randint(n - 1, 2 * n))
        td = decompose(G, "heuristic")
        assert validate_td(G, td) is None
        if n <= 7:
            assert td.width >= brute_force_width(G)


def test_decompose_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        decompose(Graph.from_edges(3, [(0, 1)]), "heuristic")


def test_validate_catches_violations():
    G = cycle_graph(4)
    ok = decompose(G, "exact_small")
    # drop a vertex from every bag: coverage violation
    bad = TreeDecomposition(
        G.n, tuple(b - {0} for b in ok.bags), ok.tree
    )
    assert "coverage" in validate_td(G, bad)
    # break occurrence connectivity
    bags = (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3, 0}))
    td = TreeDecomposition(4, bags, frozenset({(0, 1), (1, 2)}))
    msg = validate_td(G, td)
    assert msg is not None and "connectivity" in msg


def test_make_nice_shape_and_validity():
    rng = random.Random(823)
    for _ in range(10):
        n = rng.randint(3, 10)
        G = random_connected_graph(rng, n, rng.randint(n - 1, min(2 * n, n * (n - 1) // 2)))
        td = decompose(G, "exact_small" if n <= 12 else "heuristic")
        ntd = make_nice(td)
        assert validate_nice(G, ntd) is None
        assert ntd.width == td.width
        kinds = [nd.kind for nd in ntd.nodes]
        assert kinds.count("forget") == n
        joins = [nd for nd in ntd.nodes if nd.kind == "join"]
        assert kinds.count("introduce") == n + sum(len(nd.bag) for nd in joins)


def test_grid_nice_counts():
    G = grid_graph(3)
    ntd = make_nice(decompose(G, "exact_small"))
    assert validate_nice(G, ntd) is None
    kinds = [nd.kind for nd in ntd.nodes]
    assert kinds.count("forget") == 9
    joins = [nd for nd in ntd.nodes if nd.kind == "join"]
    assert kinds.count("introduce") == 9 + sum(len(nd.bag) for nd in joins)
    assert ntd.height >= 9


def test_nice_height_and_postorder():
    G = cycle_graph(5)
    ntd = make_nice(decompose(G, "exact_small"))
    post = ntd.postorder()
    assert post[-1] == ntd.root
    seen = set()
    for i in post:
        for c in ntd.nodes[i].children:
            assert c in seen
        seen.add(i)
    h = subtree_heights(ntd)
    assert h[ntd.root] == ntd.height
