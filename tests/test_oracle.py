from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    suite_graphs,
)
import stc.oracle
from stc.errors import BudgetExceededError, DisconnectedGraphError
from stc.graph import DoubleWeightedGraph, Graph, congestion_report
from stc.oracle import (
    EnumerationBudget,
    _bridges,
    count_spanning_trees,
    enumerate_spanning_trees,
    stc_exact,
)
from stc.reductions import gen_ubp


def kirchhoff_count(G: Graph) -> int:
    """Independent tree count: exact determinant of a Laplacian minor."""
    n = G.n - 1  # drop vertex 0's row and column
    L = [[Fraction(0)] * n for _ in range(n)]
    for u, v in G.edges:
        for a, b in ((u, v), (v, u)):
            if a:
                L[a - 1][a - 1] += 1
                if b:
                    L[a - 1][b - 1] -= 1
    det = Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if L[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            L[i], L[pivot] = L[pivot], L[i]
            det = -det
        det *= L[i][i]
        for r in range(i + 1, n):
            f = L[r][i] / L[i][i]
            for c in range(i, n):
                L[r][c] -= f * L[i][c]
    assert det.denominator == 1
    return int(det)


def test_bridges_without_recursion():
    # a long cycle with a two-edge tail: only the tail edges are bridges
    n = 3000
    adj = {v: {(v + 1) % n, (v - 1) % n} for v in range(n)}
    adj[0].add(n)
    adj[n] = {0, n + 1}
    adj[n + 1] = {n}
    adj[n + 2] = set()  # an isolated vertex is tolerated
    assert _bridges(n + 3, adj) == {(0, n), (n, n + 1)}


def test_counts_small():
    assert count_spanning_trees(cycle_graph(4)) == 4
    assert count_spanning_trees(complete_graph(4)) == 16
    assert count_spanning_trees(grid_graph(2)) == 4
    assert count_spanning_trees(path_graph(6)) == 1
    assert count_spanning_trees(Graph(1, frozenset())) == 1


def test_counts_match_kirchhoff_random():
    rng = random.Random(811)
    for _ in range(40):
        n = rng.randint(2, 8)
        G = random_connected_graph(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
        assert count_spanning_trees(G) == kirchhoff_count(G)


def test_enumeration_distinct_and_valid():
    G = complete_graph(5)
    seen = set()
    for t in enumerate_spanning_trees(G):
        assert t not in seen
        seen.add(t)
        assert len(t) == 4
    assert len(seen) == kirchhoff_count(G) == 125


def test_enumeration_deterministic():
    G = grid_graph(3)
    first = list(enumerate_spanning_trees(G))
    second = list(enumerate_spanning_trees(G))
    assert first == second


def test_budget_trees():
    G = complete_graph(6)
    budget = EnumerationBudget(max_trees=10, max_millis=60_000)
    got = []
    with pytest.raises(BudgetExceededError) as exc:
        for t in enumerate_spanning_trees(G, budget):
            got.append(t)
    assert exc.value.emitted == 10
    assert len(got) == 10


def test_budget_time():
    G = complete_graph(9)
    budget = EnumerationBudget(max_trees=10**9, max_millis=0)
    with pytest.raises(BudgetExceededError):
        list(enumerate_spanning_trees(G, budget))


def test_rejects_disconnected():
    G = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        list(enumerate_spanning_trees(G))
    with pytest.raises(DisconnectedGraphError):
        stc_exact(G)


def test_stc_values():
    assert stc_exact(path_graph(5))[0] == 1
    assert stc_exact(star_graph(6))[0] == 1
    assert stc_exact(cycle_graph(7))[0] == 2
    assert stc_exact(complete_graph(4))[0] == 3
    assert stc_exact(complete_graph(5))[0] == 4
    assert stc_exact(grid_graph(3))[0] == 3


def test_stc_tree_is_certified():
    G = grid_graph(3)
    k, T = stc_exact(G)
    assert congestion_report(G, T).max_congestion == k


def test_stc_tiebreak_deterministic():
    G = complete_graph(4)
    assert stc_exact(G)[1].edges == stc_exact(G)[1].edges
    t1 = sorted(stc_exact(G)[1].edges)
    t2 = sorted(stc_exact(G)[1].edges)
    assert t1 == t2


def test_stc_returns_the_first_optimal_tree_of_the_full_scan():
    # the scan stops at the first tree meeting the min-degree bound and skips
    # nodes whose bridges already cost the best so far; what it returns must
    # be the first optimal tree the full, unbounded scan would keep
    rng = random.Random(7)
    graphs = [random_connected_graph(rng, rng.randint(4, 8), rng.randint(4, 12))
              for _ in range(40)]
    for _ in range(40):
        base = random_connected_graph(rng, rng.randint(4, 8), rng.randint(4, 12))
        graphs.append(DoubleWeightedGraph(base, {e: rng.randint(1, 5) for e in base.edges},
                                          {e: rng.randint(1, 5) for e in base.edges}))
    for G in graphs + [complete_graph(5), cycle_graph(6), grid_graph(3)]:
        base = G.base if isinstance(G, DoubleWeightedGraph) else G
        trees = list(enumerate_spanning_trees(base))
        loads = [congestion_report(G, t).max_congestion for t in trees]
        k, T = stc_exact(G)
        assert k == min(loads) and T.edges == trees[loads.index(k)]


def _counting(monkeypatch, name):
    calls = []
    real = getattr(stc.oracle, name)

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(stc.oracle, name, counted)
    return calls


PETERSEN = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


@pytest.mark.parametrize("G, k, measured, total", [
    (PETERSEN, 5, 433, 2000), (grid_graph(3), 3, 23, 192)], ids=["petersen", "grid3"])
def test_bridge_cuts_skip_most_trees(monkeypatch, G, k, measured, total):
    # without the bound the scan would measure all `total` trees.  It stops
    # at the first tree meeting the lower bound: on grid3 that is lambda = 3,
    # the 23rd tree (against the minimum degree 2 the scan went on to its
    # end, 25 trees); on Petersen lambda = 3 = the minimum degree, below stc
    loads = _counting(monkeypatch, "_max_load")
    assert stc_exact(G)[0] == k and len(loads) == measured
    # plain enumeration runs the same search with no cut work
    cut_work = _counting(monkeypatch, "_vertex_loads")
    assert count_spanning_trees(G) == total == kirchhoff_count(G)
    assert cut_work == []


def test_stc_exact_trees_do_not_move():
    # one digest over (k, the tree's sorted edges) on the 200 suite graphs,
    # Petersen, the 3x3 grid and the weighted ubp: the enumeration order,
    # the bridge cuts and the stop at the lower bound decide every tree
    h = hashlib.sha256()
    for g in suite_graphs() + [PETERSEN, grid_graph(3), gen_ubp(3, [1, 1, 1]).weighted]:
        k, T = stc_exact(g)
        h.update(repr((k, sorted(T.edges))).encode())
    assert h.hexdigest() == "21d4bb1af9151d8e30d4108031ec19920c27700a8235b0de20520c8ff30095ed"


def test_long_cycle_runs_one_bridge_search(monkeypatch):
    # exclude children find their bridges when popped, and the first tree of
    # a cycle meets the min-degree floor, so no exclude child is ever popped
    bridge_calls = _counting(monkeypatch, "_bridges")
    k, T = stc_exact(cycle_graph(1500))
    assert k == 2 and len(T.edges) == 1499
    assert len(bridge_calls) == 1


def test_long_cycle_include_steps_walk_only_the_merged_vertices(monkeypatch):
    # each include step walks the smaller of the two components it merges;
    # on the cycle that is one new vertex per step, n - 1 in all, where
    # rebuilding the components would visit all n vertices on every step
    walked = []
    real = stc.oracle._smaller_side

    def counted(G, part, e):
        small, w = real(G, part, e)
        walked.append(len(small))
        return small, w

    monkeypatch.setattr(stc.oracle, "_smaller_side", counted)
    n = 1500
    k, T = stc_exact(cycle_graph(n))
    assert k == 2 and T.edges == cycle_graph(n).edges - {(n - 2, n - 1)}
    assert len(walked) == sum(walked) == n - 1


def test_weighted_oracle_cycle_value():
    # every tree of a cycle keeps all edges but one; the dropped edge's wt1
    # rides every kept edge, so the optimum is min over drops of that load
    G = cycle_graph(4)
    wt = {e: 1 for e in G.edges}
    wt[(0, 1)] = 10
    Gw = DoubleWeightedGraph.single(G, wt)
    k, _ = stc_exact(Gw)
    assert k == 10 + 1


def test_weighted_oracle_distinguishes_wt2():
    # triangle where edge (0,1) is cheap to ride over but dear to keep
    G = complete_graph(3)
    Gw = DoubleWeightedGraph(
        G,
        {(0, 1): 1, (0, 2): 3, (1, 2): 3},
        {(0, 1): 9, (0, 2): 3, (1, 2): 3},
    )
    k, T = stc_exact(Gw)
    assert (0, 1) not in T.edges
    assert k == 4  # wt2 = 3 plus the ridden wt1 = 1


def test_subdivision_invariance_small():
    rng = random.Random(812)
    for _ in range(10):
        n = rng.randint(4, 7)
        G = random_connected_graph(rng, n, rng.randint(n, min(12, n * (n - 1) // 2)))
        base, _ = stc_exact(G)
        # subdivide one non-bridge edge and re-solve
        e = sorted(G.edges)[rng.randrange(G.m)]
        edges = [x for x in G.edges if x != e]
        w = G.n
        edges += [(e[0], w), (e[1], w)]
        H = Graph.from_edges(G.n + 1, edges)
        sub, _ = stc_exact(H)
        assert sub == base
