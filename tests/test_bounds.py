"""The bounds on stc that the search over k and the kernel route start from."""
from __future__ import annotations

import random

import pytest

import stc.bounds
import stc.dp
import stc.structural.fes
from stc import solve
from stc.bounds import (
    ORACLE_CAP,
    _best_bfs_tree,
    _bfs_tree,
    _centroid_bound,
    _cycle_chords,
    _swap_loads,
    _swap_search,
    bounds,
    lower_bound,
)
from stc.dp import solve_approx_tw, solve_stc_tw
from stc.graph import Graph, _edge_loads, _tree_order, congestion_report, edge_key
from stc.oracle import stc_exact
from stc.reductions import gen_ubp

from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    subdivided,
    suite_graphs,
)
from test_oracle import PETERSEN


def _dp_runs(monkeypatch, refute=False):
    """The k of every DP run; with refute, each run answers no at once."""
    ks = []
    real = stc.dp._run_dp

    def counted(G, ntd, arith, **kw):
        ks.append(arith.k)
        return stc.dp.DPRun(None, None) if refute else real(G, ntd, arith, **kw)

    monkeypatch.setattr(stc.dp, "_run_dp", counted)
    return ks


def test_bounds_bracket_stc_on_the_suite():
    lower_tight = upper_tight = 0
    for idx, g in enumerate(suite_graphs()):
        lam, ub, T = bounds(g)
        k, _ = stc_exact(g)
        bfs, _ = _best_bfs_tree(g)
        assert lam <= k <= ub <= bfs, f"suite graph #{idx}: {lam} {k} {ub} {bfs}"
        assert congestion_report(g, T).max_congestion == ub
        lower_tight += lam == k
        upper_tight += ub == k
    # the three graphs with lambda < stc are 133, 171 and 193 (4 < 5); the
    # balanced-cut bound gives 4 on 133 and 193 and 3 on 171, so none moves,
    # but the swap search from every root now meets stc on all 200
    assert (lower_tight, upper_tight) == (197, 200)


@pytest.mark.parametrize("G, want", [
    (complete_graph(5), 4), (cycle_graph(9), 2), (grid_graph(3), 3), (grid_graph(4), 4),
    (PETERSEN, 3), (complete_bipartite(5, 5), 5), (gen_ubp(3, [1, 1, 1]).graph, 9),
], ids=["K5", "C9", "grid3", "grid4", "petersen", "K5,5", "ubp"])
def test_lower_bound_values(G, want):
    # grid4: every pair through the degree-2 corners has lambda 2; the flow
    # tree is rooted at a vertex of top degree, so it still finds 4
    assert lower_bound(G) == want


def test_lower_bound_stops_at_a_known_upper_bound():
    g = gen_ubp(3, [1, 1, 1]).graph
    assert lower_bound(g, stop=1) == 2  # the minimum degree, no flow run
    assert lower_bound(g, stop=100) == 9


def test_centroid_bound_is_sound():
    rng = random.Random(414)
    graphs = suite_graphs()
    for _ in range(100):
        n = rng.randint(4, 10)
        graphs.append(random_connected_graph(rng, n, rng.randint(n - 1, 2 * n)))
    for idx, g in enumerate(graphs):
        assert _centroid_bound(g) <= stc_exact(g)[0], f"graph #{idx}"


@pytest.mark.parametrize("G, want", [
    (path_graph(1), 0), (path_graph(2), 1), (PETERSEN, 5), (complete_bipartite(5, 5), 8),
    (complete_bipartite(2, 5), 5),
], ids=["n=1", "n=2", "petersen", "K5,5", "K2,5"])
def test_centroid_bound_values(G, want):
    # Petersen: a 3-vertex path or the outer 5-cycle; K5,5: one edge; K2,5:
    # a 3-vertex path (two vertices of degree 2 would cut 4 but are not
    # connected)
    assert _centroid_bound(G) == want
    assert bounds(G)[:2] == (want, want)


def test_meeting_bounds_skip_enumeration_and_dp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated or ran the DP although the bounds meet")

    monkeypatch.setattr(stc.structural.fes, "stc_exact", refuse)
    monkeypatch.setattr(stc.dp, "_run_dp", refuse)
    # Petersen is its own kernel, as is the core of a subdivided Petersen;
    # suite graph 193's kernel drops a degree-2 vertex, and its bounds meet
    for G, want in ((PETERSEN, 5), (subdivided(PETERSEN, 3), 5), (suite_graphs()[193], 5)):
        alg, k, T = solve(G)
        assert (alg, k) == ("fes", want) == ("fes", congestion_report(G, T).max_congestion)
    assert solve_stc_tw(complete_bipartite(5, 5))[0] == 8


def test_dp_runs_per_solve(monkeypatch):
    # a scan from the minimum degree to below the best BFS tree makes more
    # runs: grid4 3, ubp 9, K5,5 4, suite graphs 0..18 19 in all
    ks = _dp_runs(monkeypatch)
    assert solve_stc_tw(grid_graph(4))[0] == 4 and ks == []
    # grid4's best BFS tree has congestion 5 in the edge order above and 4
    # in each shuffled order below; either way no DP run is left
    edges = sorted(grid_graph(4).edges)
    for seed in range(8):
        random.Random(seed).shuffle(edges)
        assert solve_stc_tw(Graph(16, frozenset(edges)))[0] == 4 and ks == []
    assert solve_stc_tw(gen_ubp(3, [1, 1, 1]).graph)[0] == 10 and ks == [9]
    ks.clear()
    for g in suite_graphs()[:19]:
        solve_stc_tw(g)
    assert ks == []
    # K5,5: lambda 5 and the BFS trees' 8 = stc; the balanced-cut bound
    # meets 8, so 5, 6 and 7 are no longer run and refuted
    assert solve_stc_tw(complete_bipartite(5, 5))[0] == 8 and ks == []
    # suite graph 133: both bounds of the small-graph steps stay at 4 < 5 =
    # stc, so k = 4 is run; refuted (here without the DP), the search
    # returns the upper bound's tree
    ks = _dp_runs(monkeypatch, refute=True)
    k, T = solve_stc_tw(suite_graphs()[133])
    assert ks == [4] and k == 5 == congestion_report(T.host, T).max_congestion


def test_no_decomposition_when_the_bounds_meet(monkeypatch):
    def no_decomposition(G):
        raise AssertionError("decomposed although no k was left to run")

    monkeypatch.setattr(stc.dp, "default_nice_decomposition", no_decomposition)
    assert solve_stc_tw(grid_graph(4))[0] == 4
    assert solve_approx_tw(grid_graph(3), 0.1)[0] == 3


def _bounds_searching_every_root(G):
    """Reference bounds whose every-root pass searches the BFS tree of each
    root, repeats included: (lambda, ub, tree, swap searches made)."""
    lam = lower_bound(G, congestion_report(G, _bfs_tree(G, 0)).max_congestion)
    ub, T = _swap_search(G, _best_bfs_tree(G, lam)[1], lam)
    runs = 1
    if G.n <= ORACLE_CAP and lam < ub:
        lam = max(lam, _centroid_bound(G, lam))
        for root in range(G.n):
            if ub <= lam:
                break
            c, T_root = _swap_search(G, _bfs_tree(G, root), lam)
            runs += 1
            if c < ub:
                ub, T = c, T_root
    return lam, ub, T, runs


def test_every_root_pass_searches_each_bfs_tree_once(monkeypatch):
    # the skip of a tree already searched changes no bound and no tree
    # (see bounds), and no tree is searched twice in one call
    rng = random.Random(415)
    graphs = suite_graphs()
    for _ in range(100):
        n = rng.randint(4, 12)
        graphs.append(random_connected_graph(rng, n, rng.randint(n - 1, 2 * n)))
    want = [_bounds_searching_every_root(g) for g in graphs]
    searched = []
    real = stc.bounds._swap_search

    def counted(G, T, floor):
        searched.append(T.edges)
        return real(G, T, floor)

    monkeypatch.setattr(stc.bounds, "_swap_search", counted)
    skipped = 0
    for idx, (g, (lam, ub, T, runs)) in enumerate(zip(graphs, want)):
        searched.clear()
        got = bounds(g)
        assert (got[0], got[1], got[2].edges) == (lam, ub, T.edges), f"graph #{idx}"
        assert len(set(searched)) == len(searched), f"graph #{idx}"
        skipped += runs - len(searched)
    assert skipped == 17  # searches the reference repeats on these graphs


def _counted_candidates(monkeypatch):
    calls = []
    real = stc.bounds._swap_loads

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(stc.bounds, "_swap_loads", counted)
    return calls


def test_swap_search_stops_after_2m_candidates(monkeypatch):
    calls = _counted_candidates(monkeypatch)
    g = grid_graph(2, 30)  # the 2x30 ladder: BFS trees reach 15
    assert _best_bfs_tree(g)[0] == 15
    lam, ub, T = bounds(g)
    assert (lam, ub) == (3, 5) and len(calls) == 2 * g.m
    calls.clear()
    g = grid_graph(2, 10)  # here the search meets lambda first
    assert bounds(g)[:2] == (3, 3) and 0 < len(calls) < 2 * g.m


def test_swap_loads_match_a_full_measurement():
    # every candidate of every non-tree edge, on random graphs and BFS trees
    rng = random.Random(837)
    for _ in range(30):
        n = rng.randrange(4, 10)
        g = random_connected_graph(rng, n, rng.randrange(n, n + 8))
        tree = set(_best_bfs_tree(g)[1].edges)
        one = dict.fromkeys(g.edges, 1)
        before = _edge_loads(g, one, one, tree)
        parent, depth, order = _tree_order(g.n, tree)
        for f in g.edges - tree:
            cyc, chords = _cycle_chords(g, parent, depth, order, f)
            N = len(cyc)
            path = [edge_key(cyc[q], cyc[q + 1]) for q in range(N - 1)]
            for p in range(N - 1):
                full = _edge_loads(g, one, one, (tree - {path[p]}) | {f})
                kept = path[p + 1:] + [f] + path[:p]
                assert _swap_loads(chords, N, p) == [full[e] for e in kept]
                # and no tree edge off the cycle changes
                assert all(full[e] == before[e] for e in tree - set(path))
