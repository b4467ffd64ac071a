"""The bounds on stc that the search over k and the kernel route start from."""
from __future__ import annotations

import hashlib
import importlib.util
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import stc.bounds
import stc.dp
import stc.graph
import stc.oracle
from stc import solve
from stc.bounds import (
    ORACLE_CAP,
    _best_bfs_tree,
    _cycle_chords,
    _subset_step,
    _swap_loads,
    _swap_search,
    bounds,
    lower_bound,
)
from stc.dp import _first_k, search_k, solve_approx_tw, solve_stc_tw
from stc.errors import BudgetExceededError
from stc.graph import Graph, _edge_loads, congestion_report, edge_key
from stc.oracle import EnumerationBudget, stc_exact
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

# the benchmark's brute force, which shares no code with stc, read from its file
_spec = importlib.util.spec_from_file_location(
    "bench_checker", Path(__file__).resolve().parents[1] / "bench" / "checker.py")
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


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
        got, T = search_k(g)
        assert got == k == congestion_report(g, T).max_congestion, f"suite graph #{idx}"
    # lambda is 4 < 5 = stc on 133, 171 and 193, and UB is 5 > 4 = stc on
    # 68; every suite graph has at most ORACLE_CAP vertices, so search_k's
    # subset step closes each gap
    assert (lower_tight, upper_tight) == (197, 199)


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


def test_bounds_are_exact_on_small_random_graphs():
    # search_k, from the bounds and the subset step, is exact on each graph:
    # checked against the enumeration where it finishes within 200 measured
    # trees, and against the brute force up to 8 vertices
    rng = random.Random(417)
    budget = EnumerationBudget(max_trees=200)
    enumerated = brute = 0
    for idx in range(120):
        n = rng.randint(4, 12)
        g = random_connected_graph(rng, n, rng.randint(n - 1, 2 * n))
        lam, ub, _ = bounds(g)
        k, T = search_k(g)
        assert lam <= k <= ub and k == congestion_report(g, T).max_congestion, f"graph #{idx}"
        try:
            assert stc_exact(g, budget)[0] == k, f"graph #{idx}"
            enumerated += 1
        except BudgetExceededError:
            pass
        if n <= 8:
            assert checker.brute_force_stc(n, sorted(g.edges)) == k, f"graph #{idx}"
            brute += 1
    assert (enumerated, brute) == (102, 64)


@pytest.mark.parametrize("G, lam, want", [
    (path_graph(1), 0, 0), (path_graph(2), 1, 1), (PETERSEN, 3, 5),
    (complete_bipartite(5, 5), 5, 8), (complete_bipartite(2, 5), 5, 5),
], ids=["n=1", "n=2", "petersen", "K5,5", "K2,5"])
def test_centroid_bound_values(G, lam, want):
    # the upper bound is stc on each; on Petersen and K5,5 search_k's
    # subset step refutes every k from lambda up to below it
    assert bounds(G)[:2] == (lam, want)
    k, T = search_k(G)
    assert k == want == congestion_report(G, T).max_congestion


def test_meeting_bounds_skip_enumeration_and_dp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated or ran the DP although the bounds meet")

    monkeypatch.setattr(stc.oracle, "_search", refuse)
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
    # K5,5: lambda 5 and the BFS trees' 8 = stc; the subset step finds no
    # tree below 8, so 5, 6 and 7 are not run
    assert solve_stc_tw(complete_bipartite(5, 5))[0] == 8 and ks == []
    # suite graph 133: lambda 4 < 5 = stc, and the subset step leaves no k
    # to run; above ORACLE_CAP the search still runs the DP at lambda, and
    # when that is refuted (here without the DP) returns the upper bound's tree
    k, T = solve_stc_tw(suite_graphs()[133])
    assert ks == [] and k == 5 == congestion_report(T.host, T).max_congestion
    ks = _dp_runs(monkeypatch, refute=True)
    k, T = solve_stc_tw(gen_ubp(3, [1, 1, 1]).graph)
    assert ks == [9] and k == 10 == congestion_report(T.host, T).max_congestion


def _loop_and_break_ks(lam: int, ub: int, eps, limit) -> list[int]:
    """The k a DP search runs when every run refuses, by a scan that stops
    at the first k where UB <= (1+eps) max(lam, k) certifies the UB tree."""
    stop = ub if limit is None else min(ub, limit)
    slack = 1 + (eps or 0)
    ks = []
    for k in range(math.ceil(lam / slack), stop):
        if ub <= slack * max(lam, k):
            break
        ks.append(k)
    return ks


def test_dp_k_list_matches_a_loop_with_a_certified_break(monkeypatch):
    # search_k's list of k above ORACLE_CAP, with the bounds stubbed and
    # every run refused, against the loop written out above; a refused run
    # reads only k, so one decomposition serves all and no rounded grid is built
    g = grid_graph(2, 7)
    assert g.n > ORACLE_CAP
    T = _best_bfs_tree(g)[1]
    ntd = stc.dp.default_nice_decomposition(g)
    monkeypatch.setattr(stc.dp, "default_nice_decomposition", lambda G: ntd)
    monkeypatch.setattr(stc.dp, "RoundedArith", lambda k, eps, height: stc.dp.ExactArith(k))
    ks = _dp_runs(monkeypatch, refute=True)
    cases = 0
    for lam in range(1, 13):
        for ub in range(lam, 16):
            monkeypatch.setattr(stc.dp, "bounds", lambda G: (lam, ub, T))
            for eps in (None, Fraction(1, 10), Fraction(1, 9), Fraction(1, 2), 1, 2):
                for limit in (None, lam, ub - 1):
                    ks.clear()
                    search_k(g, limit, None if eps is None else Fraction(eps))
                    assert ks == _loop_and_break_ks(lam, ub, eps, limit), (lam, ub, eps, limit)
                    cases += 1
    assert cases == 114 * 6 * 3


def test_no_decomposition_when_the_bounds_meet(monkeypatch):
    def no_decomposition(G):
        raise AssertionError("decomposed although no k was left to run")

    monkeypatch.setattr(stc.dp, "default_nice_decomposition", no_decomposition)
    assert solve_stc_tw(grid_graph(4))[0] == 4
    assert solve_approx_tw(grid_graph(3), 0.1)[0] == 3


def _regression_graph() -> Graph:
    """The 8th graph of a random.Random(7) draw: n 12, m 34, lambda 7, the
    swap search's bound 9, stc 8."""
    rng = random.Random(7)
    for _ in range(8):
        n = rng.randint(6, 12)
        m = rng.randint(n + 2, min(n * (n - 1) // 2, 3 * n))
        g = random_connected_graph(rng, n, m)
    return g


def test_subset_step_answers_where_enumeration_ran_out(monkeypatch):
    # the oracle's enumeration does not finish within 3 s on this graph
    g = _regression_graph()
    lam = lower_bound(g)
    assert (g.n, g.m, lam) == (12, 34, 7)
    assert _swap_search(g, _best_bfs_tree(g, lam)[1], lam)[0] == 9
    assert _first_k(g, *_subset_step(g, range(g.n), lam, 8)) is None  # stc > 7

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated a small graph")

    monkeypatch.setattr(stc.oracle, "_search", refuse)
    alg, k, T = solve(g)
    assert (alg, k) == ("fes", 8) and congestion_report(g, T).max_congestion == 8


def test_differential_above_the_cap():
    # the subset step, with no upper bound, shares no code with the DP; n 13
    # to 15 is where search_k runs the DP rather than the subset step
    rng = random.Random(1315)
    for idx in range(8):
        n = rng.randint(13, 15)
        g = random_connected_graph(rng, n, rng.randint(n + 2, 3 * n // 2))
        lam = lower_bound(g)
        want, T, k = _first_k(g, *_subset_step(g, range(g.n), lam, 2 * g.m))
        assert congestion_report(g, T).max_congestion == want == k, f"graph #{idx}"
        low, ub, _ = bounds(g)
        assert low <= want <= ub, f"graph #{idx}"
        assert solve_stc_tw(g)[0] == want == solve(g)[1], f"graph #{idx}"
        assert solve_approx_tw(g, Fraction(1, 2))[0] <= Fraction(3, 2) * want, f"graph #{idx}"


def _cut(G: Graph, D) -> int:
    return sum((a in D) != (b in D) for a, b in G.edges)


def _brute_subset_tree(G: Graph, verts) -> int | None:
    """The least k over every parent map of verts[1:] into verts that makes
    a tree of G's edges rooted at verts[0], where each edge carries the cut
    in G of the vertices below it; None when there is no such tree."""
    root, rest = verts[0], verts[1:]
    best = None
    for parents in itertools.product(verts, repeat=len(rest)):
        parent = dict(zip(rest, parents))
        if not all(G.has_edge(x, p) for x, p in parent.items()):
            continue
        below = {x: {x} for x in rest}
        for x in rest:
            cur, steps = parent[x], 0
            while cur != root and steps < len(rest):
                below[cur].add(x)
                cur, steps = parent[cur], steps + 1
            if cur != root:
                break  # a cycle, not a tree
        else:
            k = max((_cut(G, D) for D in below.values()), default=0)
            best = k if best is None else min(best, k)
    return best


def test_subset_step_on_a_vertex_list_matches_a_brute_force():
    # a proper vertex subset, rooted at a vertex that is mostly not 0, with
    # every cut measured in the whole graph; the decision hangs every other
    # vertex from the root, so the edges inside verts are the arrangement
    rng = random.Random(2031)
    trees = refused = 0
    for idx in range(80):
        n = rng.randint(5, 9)
        g = random_connected_graph(rng, n, rng.randint(n - 1, 2 * n))
        verts = rng.sample(range(n), rng.randint(1, 5))
        want = _brute_subset_tree(g, verts)
        ks, decide = _subset_step(g, verts, 0, 2 * g.m)
        got = next(((k, found) for k in ks if (found := decide(k)) is not None), None)
        if want is None:
            assert got is None, f"graph #{idx}"
            refused += 1
            continue
        k, (all_edges, cap) = got
        assert k == want == cap, f"graph #{idx}"
        edges = [e for e in all_edges if e[0] in verts and e[1] in verts]
        leaves = {edge_key(verts[0], v) for v in range(n) if v not in verts}
        assert sorted(all_edges) == sorted(edges + list(leaves)), f"graph #{idx}"
        assert len(edges) == len(verts) - 1 and all(g.has_edge(*e) for e in edges)
        parent = {verts[0]: None}
        todo = [verts[0]]
        for v in todo:
            for a, b in edges:
                u = b if a == v else a if b == v else None
                if u is not None and u not in parent:
                    parent[u] = v
                    todo.append(u)
        assert sorted(parent) == sorted(verts), f"graph #{idx}: not a tree on verts"
        below = {x: {x} for x in verts[1:]}
        for x in verts[1:]:
            cur = parent[x]
            while cur != verts[0]:
                below[cur].add(x)
                cur = parent[cur]
        assert all(_cut(g, D) <= k for D in below.values()), f"graph #{idx}"
        trees += 1
    assert (trees, refused) == (45, 35)


def _counted_candidates(monkeypatch):
    calls = []
    real = stc.bounds._swap_loads

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(stc.bounds, "_swap_loads", counted)
    return calls


def _golden_graphs():
    yield from suite_graphs()
    yield from (gen_ubp(3, [1, 1, 1]).graph, grid_graph(4), grid_graph(5), grid_graph(2, 30),
                PETERSEN, complete_bipartite(5, 5))
    rng = random.Random(2222)
    for _ in range(100):
        n = rng.randint(2, 30)
        yield random_connected_graph(rng, n, rng.randint(n - 1, 3 * n))


def test_bounds_and_trees_do_not_move():
    # one digest over (lambda, UB, the tree's sorted edges) on 306 graphs:
    # the root scan's order and tie-break and the swap search decide every
    # tree, and a change to any of them shows here.  A graph of at most
    # ORACLE_CAP vertices enters as (stc, stc, tree) from search_k, which
    # adds the subset step's trees and values to the digest
    h = hashlib.sha256()
    for g in _golden_graphs():
        if g.n <= ORACLE_CAP:
            k, T = search_k(g)
            lam = ub = k
        else:
            lam, ub, T = bounds(g)
        h.update(repr((lam, ub, sorted(T.edges))).encode())
    assert h.hexdigest() == "17a82728cc2b49e7051f72da4889787f4fed16d32517a9e561e1b99ccd3257a6"


@pytest.mark.parametrize("G, validated, walks", [
    (gen_ubp(3, [1, 1, 1]).graph, 2, 4), (grid_graph(2, 30), 2, 42), (grid_graph(4), 2, 4),
    (PETERSEN, 1, 1),
], ids=["ubp", "ladder2x30", "grid4", "petersen"])
def test_bounds_validate_two_trees(monkeypatch, G, validated, walks):
    # the BFS scan measures every root on its walk and validates only the
    # winner; the swap search validates the tree it returns after a swap.
    # Every swap also rebuilds the walk: 2 on ubp and grid4, 40 on the
    # ladder.  A SpanningTree per root would validate 24, 62 and 18 trees
    # there.  On Petersen (lambda 3, UB 5) no swap is taken, so the swap
    # search returns the scan's tree.  Every case starts the swap search
    # above lambda
    assert lower_bound(G) < _best_bfs_tree(G)[0]
    calls = {"validate": 0, "walk": 0}
    validate, walk = stc.graph._spanning_walk, stc.graph._tree_order

    def counted_validate(*args):
        calls["validate"] += 1
        return validate(*args)

    def counted_walk(*args):
        calls["walk"] += 1
        return walk(*args)

    monkeypatch.setattr(stc.graph, "_spanning_walk", counted_validate)
    monkeypatch.setattr(stc.graph, "_tree_order", counted_walk)
    monkeypatch.setattr(stc.bounds, "_tree_order", counted_walk)
    bounds(G)
    assert calls == {"validate": validated, "walk": walks}


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
    # every candidate of every non-tree edge, on random graphs and BFS trees;
    # the draws with m up to 3n give cycles many chords besides their own
    # path edges, which _cycle_chords adds without counting
    rng = random.Random(837)
    for idx in range(50):
        n = rng.randrange(4, 10)
        m = rng.randrange(n, n + 8) if idx < 30 else rng.randint(2 * n, 3 * n)
        g = random_connected_graph(rng, n, m)
        T = _best_bfs_tree(g)[1]
        tree = set(T.edges)
        one = dict.fromkeys(g.edges, 1)
        before = _edge_loads(g, one, one, tree)
        parent, depth, order = T._walk
        nontree = g.edges - tree
        for f in nontree:
            cyc, chords = _cycle_chords(parent, depth, order, nontree, f)
            N = len(cyc)
            path = [edge_key(cyc[q], cyc[q + 1]) for q in range(N - 1)]
            for p in range(N - 1):
                full = _edge_loads(g, one, one, (tree - {path[p]}) | {f})
                kept = path[p + 1:] + [f] + path[:p]
                assert _swap_loads(chords, N, p) == [full[e] for e in kept]
                # and no tree edge off the cycle changes
                assert all(full[e] == before[e] for e in tree - set(path))
