"""Treewidth DP: exact solver, approximation scheme, and the decision entry
(`solve` with alg="dp" and a given k), which refutes from the lower bound
before it runs the DP."""
import itertools
import math
import random
from bisect import bisect_left
from fractions import Fraction
from types import SimpleNamespace

import pytest

import stc.dp
import stc.route
from stc.dp import (
    EMPTY_STATE,
    _closed,
    _doomed,
    _drop_dominated,
    _forget_table,
    _freeze,
    _isomorphisms,
    _join_table,
    _merge_order,
    _run_dp,
    _shape_key,
    _zip_join,
    _zip_key,
    ExactArith,
    RoundedArith,
    default_nice_decomposition,
    solve_approx_tw,
    solve_exact_tw,
    solve_stc_tw,
)
from stc.bounds import _min_cut, bounds, lower_bound
from stc.decomposition import TreeDecomposition, decompose, make_nice
from stc.errors import InvalidDecompositionError
from stc.graph import Graph, SpanningTree, congestion_report, edge_key
from stc.oracle import stc_exact
from stc.reductions import gen_ubp
from stc.route import solve

from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    gap_graphs,
    grid_graph,
    hung_gadget_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    suite_graphs,
)
from dp_checks import (
    _decode,
    _path,
    check_approx_invariant,
    introduces_saved,
    validated_tree,
)
from test_oracle import PETERSEN


@pytest.fixture(scope="module")
def kept_runs():
    """Exact runs with every table kept: the 4x4 grid at k = 4 and 5, ubp at
    k = 9 (refuted) and 10."""
    out = {}
    grid4, ubp = grid_graph(4), gen_ubp(3, [1, 1, 1]).graph
    for name, g, k in (
        ("grid4", grid4, 4),
        ("grid4 k=5", grid4, 5),
        ("ubp k=9", ubp, 9),
        ("ubp", ubp, 10),
    ):
        ntd = default_nice_decomposition(g)
        arith = ExactArith(k)
        out[name] = (g, ntd, arith, _run_dp(g, ntd, arith, keep_tables=True))
    return out


def _processed_sets(ntd):
    """P(t) per node: every vertex introduced in t's subtree."""
    proc = {}
    for i in ntd.postorder():
        nd = ntd.nodes[i]
        p = frozenset().union(*(proc[c] for c in nd.children))
        proc[i] = p | {nd.vertex} if nd.kind == "introduce" else p
    return proc


def _join_steps(g, ntd, arith, run):
    """Each pairwise merge of each join node of a kept run, in the DP's
    merge order: (bag, the tables merged so far, the next operand).  The
    fold filters doomed states and drops dominated ones after each merge, as
    _run_dp does, and must end at the join's stored table."""
    proc = _processed_sets(ntd)
    for i, nd in enumerate(ntd.nodes):
        if nd.kind != "join":
            continue
        tables = [run.tables[c] for c in nd.children]
        order = _merge_order(tables)
        acc, merged = tables[order[0]], proc[nd.children[order[0]]]
        for j in order[1:]:
            yield nd.bag, acc, tables[j]
            merged |= proc[nd.children[j]]
            closed = _closed(g, nd.bag, merged)
            joined = _join_table(arith, acc, tables[j])
            acc = _drop_dominated(
                {s: F for s, F in joined.items() if not _doomed(g, closed, s[0])}
            )
            if not acc:
                break
        assert list(acc.items()) == list(run.tables[i].items()), f"join node {i}"


def _doom_cases():
    """(name, G, ntd, eps, k): exact runs on the 4x4 grid, ubp, suite graphs
    0..39 and K5,5, and rounded runs on ubp."""
    grid4 = grid_graph(4)
    ubp = gen_ubp(3, [1, 1, 1]).graph
    ntd_grid4 = default_nice_decomposition(grid4)
    ntd_ubp = default_nice_decomposition(ubp)
    for k in range(1, 6):
        yield f"grid4 k={k}", grid4, ntd_grid4, None, k
    for k in range(1, 11):
        yield f"ubp k={k}", ubp, ntd_ubp, None, k
    for idx, g in enumerate(suite_graphs()[:40]):
        ntd = default_nice_decomposition(g)
        for k in range(1, 6):
            yield f"suite #{idx} k={k}", g, ntd, None, k
    k55 = complete_bipartite(5, 5)
    yield "K5,5 k=4", k55, default_nice_decomposition(k55), None, 4
    for eps in (Fraction(1, 2), Fraction(1)):
        for k in (4, 7, 10):
            yield f"ubp eps={eps} k={k}", ubp, ntd_ubp, eps, k


@pytest.fixture(scope="module")
def doom_runs():
    """Each case run with every table kept, as it is and with _doomed
    patched to never fire: (name, G, ntd, arith, pruned run, unpruned run).
    The unpruned run merges each join's tables in the order the pruned run
    chose, which it would not always pick itself: its tables are larger."""
    out = []
    for name, g, ntd, eps, k in _doom_cases():
        arith = ExactArith(k) if eps is None else RoundedArith(k, eps, ntd.height)
        orders = []

        def recorded(tables):
            orders.append(_merge_order(tables))
            return orders[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stc.dp, "_merge_order", recorded)
            pruned = _run_dp(g, ntd, arith, keep_tables=True)
            replay = iter(orders)
            mp.setattr(stc.dp, "_merge_order", lambda tables: next(replay))
            mp.setattr(stc.dp, "_doomed", lambda G, closed, edges: False)
            unpruned = _run_dp(g, ntd, arith, keep_tables=True)
        assert next(replay, None) is None, name
        out.append((name, g, ntd, arith, pruned, unpruned))
    return out


def test_named_graph_values():
    assert solve_stc_tw(path_graph(5))[0] == 1
    assert solve_stc_tw(star_graph(6))[0] == 1
    assert solve_stc_tw(cycle_graph(7))[0] == 2
    assert solve_stc_tw(complete_graph(4))[0] == 3
    assert solve_stc_tw(complete_graph(5))[0] == 4
    assert solve_stc_tw(grid_graph(3))[0] == 3


def test_single_vertex():
    g = Graph.from_edges(1, [])
    k, T = solve_stc_tw(g)
    assert k == 0 and T.edges == frozenset()


def test_trees_give_congestion_one():
    rng = random.Random(830)
    for _ in range(10):
        n = rng.randrange(2, 10)
        g = random_connected_graph(rng, n, n - 1)
        k, T = solve_stc_tw(g)
        assert k == 1
        assert T.edges == g.edges


def test_decision_threshold_on_cycle():
    g = cycle_graph(4)
    assert solve_exact_tw(g, 1) is None
    T = solve_exact_tw(g, 2)
    assert T is not None
    assert congestion_report(g, T).max_congestion == 2


def test_matches_oracle_on_random_graphs():
    rng = random.Random(831)
    for _ in range(50):
        n = rng.randrange(3, 9)
        m = rng.randrange(n - 1, min(n * (n - 1) // 2, n + 6) + 1)
        g = random_connected_graph(rng, n, m)
        k_oracle, _ = stc_exact(g)
        k_dp, T = solve_stc_tw(g)
        assert k_dp == k_oracle
        assert congestion_report(g, T).max_congestion == k_dp


def test_matches_oracle_on_petersen():
    g = Graph.from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
    )
    assert solve_stc_tw(g)[0] == stc_exact(g)[0] == 5


def test_join_nodes_are_exercised(monkeypatch):
    # the DP runs on these decompositions directly: a search over k would
    # answer both graphs from their bounds, which meet
    joins = []
    real = stc.dp._join_table

    def counted(*args):
        joins.append(1)
        return real(*args)

    monkeypatch.setattr(stc.dp, "_join_table", counted)
    # spider of three 2-edge legs: its decomposition tree branches at the hub
    g = Graph.from_edges(
        7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
    )
    ntd = default_nice_decomposition(g)
    assert any(nd.kind == "join" for nd in ntd.nodes)
    assert congestion_report(g, solve_exact_tw(g, 1, ntd)).max_congestion == 1
    # three triangles at one hub: stc 2
    g2 = Graph.from_edges(
        7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 0)]
    )
    ntd2 = default_nice_decomposition(g2)
    assert any(nd.kind == "join" for nd in ntd2.nodes)
    assert congestion_report(g2, solve_exact_tw(g2, 2, ntd2)).max_congestion == 2
    assert solve_exact_tw(g2, 1, ntd2) is None
    assert stc_exact(g2)[0] == 2
    assert joins


def test_mismatched_decomposition_rejected():
    ntd = default_nice_decomposition(path_graph(4))
    with pytest.raises(InvalidDecompositionError):
        solve_exact_tw(cycle_graph(4), 2, ntd)


def test_bad_k_rejected():
    with pytest.raises(ValueError):
        solve_exact_tw(path_graph(3), 0)


def test_consistency_validator_accepts_real_runs():
    for g, k in [
        (cycle_graph(4), 2),
        (complete_graph(4), 3),
        (Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]), 2),
    ]:
        assert validated_tree(g, k) is not None
        if k > 1:
            assert validated_tree(g, k - 1) is None


def _canonical(adj, vlab):
    """A dict skeleton frozen by _freeze: its anonymous ids are renamed to
    -1 .. -m in insertion order and its edges listed."""
    names = {x: -(i + 1) for i, x in enumerate(x for x in adj if x < 0)}
    edges = []
    for v, nb in adj.items():
        for u, (lbl, c) in nb.items():
            a, b = names.get(v, v), names.get(u, u)
            if a < b:
                edges.append((a, b, lbl, c))
    return _freeze(edges, tuple(vlab[x] for x in names))


def _assert_skeleton(state, bag):
    """A stored state's invariants, read from its tuple: it is a tree over
    the bag and its anonymous vertices, no anonymous vertex has degree below
    3, and every edge at an anonymous vertex carries that vertex's label."""
    edges, anon = state
    nodes = set(bag) | set(range(-len(anon), 0))
    adj = {x: [] for x in nodes}
    for a, b, lbl, _c in edges:
        adj[a].append(b)
        adj[b].append(a)
        for x in (a, b):
            if x < 0:
                assert lbl == anon[-x - 1], f"edge {a}-{b} off its vertex's label"
    assert all(len(adj[x]) >= 3 for x in nodes if x < 0), "anonymous degree < 3"
    if nodes:
        seen, todo = {min(nodes)}, [min(nodes)]
        for x in todo:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        assert seen == nodes and len(edges) == len(nodes) - 1, "not a tree"


def _forget_one(G, bag, v, state, k=10):
    """_forget_table at a forget(v) node whose child holds one state."""
    F = frozenset({(98, 99)})  # a marker: the output keeps its input's forest
    nd = SimpleNamespace(vertex=v, bag=bag)
    out = _forget_table(G, ExactArith(k), nd, {state: F})
    assert set(out.values()) <= {F}
    for s in out:
        _assert_skeleton(s, bag)
    return list(out)


def test_forget_on_hand_built_states():
    # v alone in the bag: the empty state stays empty
    alone = Graph.from_edges(1, [])
    assert _forget_one(alone, frozenset(), 0, EMPTY_STATE) == [EMPTY_STATE]
    # v a leaf at a bag vertex: its graph edges to 0 and 1 load the path
    # 2 - 1 - 0 twice on 1-2 and once on 0-1, and the edge to v goes
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    leaf = (((0, 1, 1, 3), (1, 2, 0, 1)), ())
    assert _forget_one(g, frozenset({0, 1}), 2, leaf) == [(((0, 1, 1, 4),), ())]
    # ... and with k = 3 the edge 0-1 overflows, so the state is refused
    assert _forget_one(g, frozenset({0, 1}), 2, leaf, k=3) == []
    # v of degree 2: its edges (counters 1 + 1 and 5 + 1) merge into one
    # past edge that keeps the larger counter
    mid = (((0, 2, 0, 1), (1, 2, -1, 5)), ())
    assert _forget_one(g, frozenset({0, 1}), 2, mid) == [(((0, 1, -1, 6),), ())]
    # a future edge at v is refused
    future = (((0, 2, 0, 1), (1, 2, 1, 5)), ())
    assert _forget_one(g, frozenset({0, 1}), 2, future) == []
    # v of degree 3 stays as a past branch vertex, the next name down
    star = Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
    state = (((0, 3, 0, 1), (1, 3, -1, 2), (2, 3, 0, 0)), ())
    assert _forget_one(star, frozenset({0, 1, 2}), 3, state) == [
        (((-1, 0, -1, 2), (-1, 1, -1, 3), (-1, 2, -1, 1)), (-1,))
    ]
    # v a leaf at -1, an anonymous vertex of degree 3 (0, -2 and v): the
    # route from 3 to 1 loads 3 - -1 - -2 - 1, -1 is contracted into an
    # edge -2 - 0 that keeps max(4 + 1, 3), and -2 is renamed -1
    g = Graph.from_edges(4, [(1, 3)])
    state = ((
        (-2, -1, -1, 4), (-2, 1, -1, 1), (-2, 2, -1, 2), (-1, 0, -1, 3), (-1, 3, -1, 0),
    ), (-1, -1))
    assert _forget_one(g, frozenset({0, 1, 2}), 3, state) == [
        (((-1, 0, -1, 5), (-1, 1, -1, 2), (-1, 2, -1, 2)), (-1,))
    ]
    # -1 of degree 4 keeps its vertex and name when the leaf v goes
    state = ((
        (-2, -1, -1, 4), (-2, 1, -1, 1), (-2, 2, -1, 2),
        (-1, 0, -1, 3), (-1, 3, -1, 0), (-1, 4, -1, 0),
    ), (-1, -1))
    g = Graph.from_edges(5, [(1, 4)])
    assert _forget_one(g, frozenset({0, 1, 2, 3}), 4, state) == [((
        (-2, -1, -1, 5), (-2, 1, -1, 2), (-2, 2, -1, 2), (-1, 0, -1, 3), (-1, 3, -1, 0),
    ), (-1, -1))]
    # v of degree 3 next to -1: v, now past, comes first in preorder from
    # bag vertex 0, so it takes the name -1 and the old -1 becomes -2
    state = ((
        (-1, 2, -1, 0), (-1, 3, -1, 0), (-1, 4, -1, 0), (0, 4, 0, 0), (1, 4, 0, 0),
    ), (-1,))
    g = Graph.from_edges(5, [(0, 4), (1, 4)])
    assert _forget_one(g, frozenset({0, 1, 2, 3}), 4, state) == [((
        (-2, -1, -1, 0), (-2, 2, -1, 0), (-2, 3, -1, 0), (-1, 0, -1, 1), (-1, 1, -1, 1),
    ), (-1, -1))]


def test_canonical_ignores_anonymous_naming():
    def enc(a_id, b_id):
        adj = {
            0: {a_id: (1, 1)},
            1: {a_id: (1, 2)},
            2: {b_id: (1, 1)},
            3: {b_id: (1, 1)},
            a_id: {0: (1, 1), 1: (1, 2), b_id: (1, 0)},
            b_id: {2: (1, 1), 3: (1, 1), a_id: (1, 0)},
        }
        vlab = {0: 0, 1: 0, 2: 0, 3: 0, a_id: 1, b_id: 1}
        return _canonical(adj, vlab)

    assert enc(-1, -2) == enc(-2, -1)
    state = enc(-1, -2)
    adj, vlab = _decode(state, frozenset({0, 1, 2, 3}))
    assert sorted(vlab.values()) == [0, 0, 0, 0, 1, 1]


def test_canonical_without_anonymous_vertices_keeps_bag_names():
    adj = {0: {2: (1, 3)}, 1: {2: (0, 1)}, 2: {0: (1, 3), 1: (0, 1)}}
    vlab = {0: 0, 1: 0, 2: 0}
    assert _canonical(adj, vlab) == (((0, 2, 1, 3), (1, 2, 0, 1)), ())


def _canonical_two_pass(adj, vlab):
    """Reference canonical form: one pass signs every subtree and records the
    child order, a second names the anonymous vertices in preorder."""
    if not adj:
        return EMPTY_STATE
    if min(adj) >= 0:
        return (tuple(sorted(
            (v, u, lbl, c) for v in adj for u, (lbl, c) in adj[v].items() if v < u
        )), ())
    root = min(v for v in adj if v >= 0)
    child_order = {}

    def sig(v, parent):
        kids = []
        for u, pay in adj[v].items():
            if u == parent:
                continue
            kids.append((pay, sig(u, v), u))
        kids.sort(key=lambda t: (t[0], t[1]))
        child_order[v] = [u for _, _, u in kids]
        token = ("b", v) if v >= 0 else ("a", vlab[v])
        return (token, tuple((pay, s) for pay, s, _ in kids))

    sig(root, -10**9)
    names = {}
    counter = [0]

    def assign(v, parent):
        if v < 0:
            counter[0] += 1
            names[v] = -counter[0]
        for u in child_order[v]:
            assign(u, v)

    assign(root, -10**9)

    def nm(v):
        return names.get(v, v)

    edges = []
    for v in adj:
        for u, (lbl, c) in adj[v].items():
            a, b = nm(v), nm(u)
            if a < b:
                edges.append((a, b, lbl, c))
    anon_labels = tuple(vlab[x] for x in sorted(names, key=lambda t: -names[t]))
    return (tuple(sorted(edges)), anon_labels)


def _scrambled(adj, vlab, rng):
    """The same skeleton under fresh anonymous ids and a shuffled insertion
    order of vertices and neighbours."""
    anons = [x for x in adj if x < 0]
    ren = dict(zip(anons, rng.sample(range(-3 * len(anons) - 3, 0), len(anons))))
    vs = list(adj)
    rng.shuffle(vs)
    adj2, vlab2 = {}, {}
    for v in vs:
        nbrs = list(adj[v].items())
        rng.shuffle(nbrs)
        adj2[ren.get(v, v)] = {ren.get(u, u): pay for u, pay in nbrs}
        vlab2[ren.get(v, v)] = vlab[v]
    return adj2, vlab2


def test_canonical_is_a_canonical_form(kept_runs):
    # every stored state, re-encoded under random namings and insertion
    # orders, canonicalizes back to itself, as the two-pass reference does
    rng = random.Random(837)
    anon_counts = set()
    for _, ntd, _, run in kept_runs.values():
        for i, table in run.tables.items():
            bag = ntd.nodes[i].bag
            for state in table:
                anon_counts.add(len(state[1]))
                adj, vlab = _decode(state, bag)
                assert _canonical(adj, vlab) == state
                for _ in range(2):
                    adj2, vlab2 = _scrambled(adj, vlab, rng)
                    assert _canonical(adj2, vlab2) == state
                    assert _canonical_two_pass(adj2, vlab2) == state
    assert anon_counts == {0, 1, 2, 3}


def test_join_zips_states_with_at_most_one_anonymous_vertex(kept_runs):
    # the general join of every pair the fast path meets: decode, the
    # _isomorphisms search and _canonical, as the states with two or more
    # anonymous vertices still go
    pairs = 0
    for g, ntd, arith, run in kept_runs.values():
        for bag, t1, t2 in _join_steps(g, ntd, arith, run):
            buckets = {}
            for s2 in t2:
                if len(s2[1]) <= 1:
                    buckets.setdefault(_shape_key(s2), []).append(s2)
            expected = {}
            for s1, F1 in t1.items():
                if len(s1[1]) > 1:
                    continue
                adj1, vlab1 = _decode(s1, bag)
                for s2 in buckets.get(_shape_key(s1), ()):
                    pairs += 1
                    assert _zip_key(s1) == _zip_key(s2)
                    adj2, vlab2 = _decode(s2, bag)
                    phis = list(_isomorphisms(s1, s2))
                    assert len(phis) == 1
                    phi = phis[0]
                    joined = None
                    if not any(
                        vlab1[x] == vlab2[phi[x]] == -1 for x in vlab1 if x < 0
                    ):
                        adjJ = {v: {} for v in adj1}
                        for x, y, l1, c1 in s1[0]:
                            l2, c2 = adj2[phi.get(x, x)][phi.get(y, y)]
                            c = arith.join(c1, c2)
                            if l1 == l2 == -1 or c is None:
                                break
                            adjJ[x][y] = adjJ[y][x] = (min(l1, l2), c)
                        else:
                            vlabJ = {
                                x: min(l, vlab2[phi[x]]) if x < 0 else 0
                                for x, l in vlab1.items()
                            }
                            joined = _canonical(adjJ, vlabJ)
                    assert _zip_join(arith, s1, s2) == joined
                    if joined is not None:
                        expected.setdefault(joined, F1 | t2[s2])
            # no two states of different shape share a zip bucket
            zip_keys = {_zip_key(s2) for s2s in buckets.values() for s2 in s2s}
            assert len(zip_keys) == len(buckets)
            # the table keeps the general path's states, order and forests
            out = _join_table(arith, t1, t2)
            fast = [(s, F) for s, F in out.items() if len(s[1]) <= 1]
            assert fast == list(expected.items())
    assert pairs > 1000


def _join_by_permutation(arith, t1, t2, bag):
    """Reference join of the states with two or more anonymous vertices:
    decode both, try every bijection of anonymous names, combine on the
    adjacency dicts and canonicalize.  Asserts that isomorphic states share
    a _shape_key, and returns the table with the isomorphic pair count."""
    out = {}
    pairs = 0
    decoded2 = [(s2, F2, *_decode(s2, bag)) for s2, F2 in t2.items() if len(s2[1]) > 1]
    for s1, F1 in t1.items():
        if len(s1[1]) <= 1:
            continue
        adj1, vlab1 = _decode(s1, bag)
        names = range(-len(s1[1]), 0)
        for s2, F2, adj2, vlab2 in decoded2:
            if len(s2[1]) != len(s1[1]) or len(s2[0]) != len(s1[0]):
                continue
            for perm in itertools.permutations(names):
                phi = dict(zip(names, perm))
                if any(
                    phi.get(y, y) not in adj2[phi.get(x, x)]
                    or (adj2[phi.get(x, x)][phi.get(y, y)][0] == 0) != (l1 == 0)
                    for x, y, l1, _ in s1[0]
                ):
                    continue
                pairs += 1
                assert _shape_key(s1) == _shape_key(s2)
                if any(vlab1[x] == vlab2[phi[x]] == -1 for x in names):
                    continue
                adjJ = {v: {} for v in adj1}
                for x, y, l1, c1 in s1[0]:
                    l2, c2 = adj2[phi.get(x, x)][phi.get(y, y)]
                    c = arith.join(c1, c2)
                    if l1 == l2 == -1 or c is None:
                        break
                    adjJ[x][y] = adjJ[y][x] = (min(l1, l2), c)
                else:
                    vlabJ = {x: min(vlab1[x], vlab2[phi[x]]) for x in names}
                    out.setdefault(_canonical(adjJ, vlabJ), F1 | F2)
    return out, pairs


def test_join_of_several_anonymous_vertices_equals_decode_and_permute(kept_runs):
    # the states with two or more anonymous vertices come out of the renamed
    # zip exactly as the reference builds them: same states, order, forests
    pairs = states = 0
    for g, ntd, arith, run in kept_runs.values():
        for bag, t1, t2 in _join_steps(g, ntd, arith, run):
            want, n = _join_by_permutation(arith, t1, t2, bag)
            pairs += n
            states += len(want)
            out = _join_table(arith, t1, t2)
            assert [(s, F) for s, F in out.items() if len(s[1]) > 1] == list(want.items())
    assert pairs > 1000 and states > 500


def test_zip_join_refuses_any_anonymous_vertex_past_on_both_sides():
    edges = ((-2, 0, 1, 1), (-1, 0, 1, 2))
    assert _zip_join(ExactArith(5), (edges, (1, -1)), (edges, (-1, 1))) == (
        ((-2, 0, 1, 2), (-1, 0, 1, 4)), (-1, -1)
    )
    assert _zip_join(ExactArith(5), (edges, (1, -1)), (edges, (1, -1))) is None


def test_join_renames_the_second_state_by_the_inverse_bijection():
    # bag vertex 0 with anonymous children a, b, c over the bag leaves 1 2,
    # 3 4 and 5 6; their edges to 0 carry counters (1, 2, 3) in s1 and
    # (3, 1, 2) in s2, where b is future and a, c are past, so s1 names
    # a, b, c -1, -2, -3 and s2 names c, a, b -1, -2, -3: the only bijection
    # is a 3-cycle of names, which is not its own inverse
    def state(counters, labels):
        adj = {v: {} for v in range(7)}
        vlab = dict.fromkeys(range(7), 0)
        for x, c, lbl, leaves in zip(
            (-1, -2, -3), counters, labels, ((1, 2), (3, 4), (5, 6))
        ):
            adj[x] = {}
            vlab[x] = lbl
            for u, cu in ((0, c), (leaves[0], 0), (leaves[1], 0)):
                adj[x][u] = adj[u][x] = (lbl, cu)
        return _canonical(adj, vlab)

    s1 = state((1, 2, 3), (1, 1, 1))
    s2 = state((3, 1, 2), (-1, 1, -1))
    assert s2[1] == (-1, -1, 1)
    assert s2[0][:3] == ((-3, 0, 1, 1), (-3, 3, 1, 0), (-3, 4, 1, 0))
    assert list(_isomorphisms(s1, s2)) == [{-3: -1, -2: -3, -1: -2}]
    F1, F2 = frozenset({(0, 1)}), frozenset({(0, 3)})
    # a, b, c now carry 1 + 3, 2 + 1 and 3 + 2 to 0, and b alone is still
    # future, so a, c, b are named -1, -2, -3
    want = ((
        (-3, 0, 1, 3), (-3, 3, 1, 0), (-3, 4, 1, 0),
        (-2, 0, -1, 5), (-2, 5, -1, 0), (-2, 6, -1, 0),
        (-1, 0, -1, 4), (-1, 1, -1, 0), (-1, 2, -1, 0),
    ), (-1, -1, 1))
    assert _join_table(ExactArith(10), {s1: F1}, {s2: F2}) == {want: F1 | F2}


def _insert(table, bag_size: int, adj, vlab, forest) -> None:
    assert len(adj) <= 2 * bag_size + 1, "skeleton exceeds the 2w+1 size bound"
    table.setdefault(_canonical(adj, vlab), forest)


def _introduce_by_dict(G, nd, child_table):
    """Reference introduce: decode each child state to adjacency dicts, copy
    them for every placement and canonicalize each result."""
    v = nd.vertex
    bag = nd.bag
    vnbrs = G.neighbors(v)
    out = {}

    def copy(adj):
        return {x: dict(nb) for x, nb in adj.items()}

    for state, F in child_table.items():
        adj, vlab = _decode(state, bag - {v})
        if not adj:
            _insert(out, len(bag), {v: {}}, {v: 0}, F)
            continue
        future_edges = [
            (a, b) for a in adj for b in adj[a] if a < b and adj[a][b][0] == 1
        ]
        for u in adj:
            opts = []
            if u >= 0:
                opts.append(1)
                if u in vnbrs:
                    opts.append(0)
            elif vlab[u] == 1:
                opts.append(1)
            for lbl in opts:
                adj2, vlab2 = copy(adj), dict(vlab)
                adj2[v] = {u: (lbl, 0)}
                adj2[u][v] = (lbl, 0)
                vlab2[v] = 0
                F2 = F | {edge_key(u, v)} if lbl == 0 else F
                _insert(out, len(bag), adj2, vlab2, F2)
        for x in [x for x in adj if x < 0 and vlab[x] == 1]:
            upgradable = [u for u in adj[x] if u >= 0 and u in vnbrs]
            for r in range(len(upgradable) + 1):
                for chosen in itertools.combinations(upgradable, r):
                    adj2, vlab2 = copy(adj), dict(vlab)
                    nb = adj2.pop(x)
                    del vlab2[x]
                    adj2[v] = {}
                    vlab2[v] = 0
                    zero_edges = set()
                    for u, (lbl, c) in nb.items():
                        del adj2[u][x]
                        if u in chosen:
                            lbl = 0
                            zero_edges.add(edge_key(u, v))
                        adj2[v][u] = adj2[u][v] = (lbl, c)
                    _insert(out, len(bag), adj2, vlab2, F | zero_edges)
        for a, b in future_edges:
            c_ab = adj[a][b][1]
            for la in [1] + ([0] if a >= 0 and a in vnbrs else []):
                for lb in [1] + ([0] if b >= 0 and b in vnbrs else []):
                    adj2, vlab2 = copy(adj), dict(vlab)
                    del adj2[a][b], adj2[b][a]
                    adj2[v] = {a: (la, c_ab), b: (lb, c_ab)}
                    adj2[a][v] = (la, c_ab)
                    adj2[b][v] = (lb, c_ab)
                    vlab2[v] = 0
                    F2 = F
                    if la == 0:
                        F2 = F2 | {edge_key(a, v)}
                    if lb == 0:
                        F2 = F2 | {edge_key(b, v)}
                    _insert(out, len(bag), adj2, vlab2, F2)
        for a, b in future_edges:
            c_ab = adj[a][b][1]
            adj2, vlab2 = copy(adj), dict(vlab)
            w = min(-1, min((x for x in adj2 if x < 0), default=0) - 1)
            del adj2[a][b], adj2[b][a]
            adj2[w] = {a: (1, c_ab), b: (1, c_ab), v: (1, 0)}
            adj2[a][w] = adj2[b][w] = (1, c_ab)
            adj2[v] = {w: (1, 0)}
            vlab2[w] = 1
            vlab2[v] = 0
            _insert(out, len(bag), adj2, vlab2, F)
    return out


def test_tuple_introduce_equals_the_dict_introduce(doom_runs):
    # with _doomed never firing, every introduce table is the reference's
    # output on the child table: same states, order and forests
    nodes = 0
    for name, g, ntd, _, _, unpruned in doom_runs:
        for i, table in unpruned.tables.items():
            nd = ntd.nodes[i]
            if nd.kind == "introduce":
                nodes += 1
                want = _introduce_by_dict(g, nd, unpruned.tables[nd.children[0]])
                assert list(table.items()) == list(want.items()), f"{name}, node {i}"
    assert nodes == 2968


def _simplify(adj, vlab) -> None:
    """Drop anonymous vertices below degree 3; contraction max-merges c."""
    work = [x for x in adj if x < 0]
    while work:
        x = work.pop()
        if x not in adj or len(adj[x]) > 2:
            continue
        if len(adj[x]) == 0:
            del adj[x], vlab[x]
        elif len(adj[x]) == 1:
            (u,) = adj[x]
            del adj[x], vlab[x]
            del adj[u][x]
            if u < 0:
                work.append(u)
        else:
            (a, (la, ca)), (b, (lb, cb)) = adj[x].items()
            lbl = vlab[x]
            assert la == lbl and lb == lbl, "edge labels at an anonymous vertex match it"
            del adj[x], vlab[x]
            del adj[a][x], adj[b][x]
            assert b not in adj[a], "contraction would close a cycle"
            pay = (lbl, max(ca, cb))
            adj[a][b] = pay
            adj[b][a] = pay
    assert all(len(adj[x]) >= 3 for x in adj if x < 0), "simplification incomplete"


def _forget_by_dict(G, arith, nd, child_table):
    """Reference forget: decode each child state to adjacency dicts, route
    v's graph edges along _path, rename v past, _simplify and canonicalize."""
    v = nd.vertex
    bag = nd.bag
    nbrs = [u for u in G.neighbors(v) if u in bag]
    out = {}
    for state, F in child_table.items():
        adj, vlab = _decode(state, bag | {v})
        if any(lbl == 1 for lbl, _ in adj[v].values()):
            continue
        incr = {}
        for u in nbrs:
            for e in _path(adj, v, u):
                incr[e] = incr.get(e, 0) + 1
        ok = True
        for (x, y), r in incr.items():
            lbl, c = adj[x][y]
            c2 = arith.add_int(c, r)
            if c2 is None:
                ok = False
                break
            adj[x][y] = adj[y][x] = (lbl, c2)
        if not ok:
            continue
        a = min((x for x in adj if x < 0), default=0) - 1
        nb = adj.pop(v)
        del vlab[v]
        adj[a] = {}
        vlab[a] = -1
        for u, (lbl, c) in nb.items():
            del adj[u][v]
            if lbl == 0:
                lbl = -1
            adj[a][u] = adj[u][a] = (lbl, c)
        _simplify(adj, vlab)
        out.setdefault(_canonical(adj, vlab), F)
    return out


def test_tuple_forget_equals_the_dict_forget(doom_runs):
    # on every forget node, exact and rounded, pruned and unpruned, the
    # table is the reference's output on the child table (same states,
    # order and forests) after the dominance pass
    nodes = 0
    for name, g, ntd, arith, pruned, unpruned in doom_runs:
        for run in (pruned, unpruned):
            for i, table in run.tables.items():
                nd = ntd.nodes[i]
                if nd.kind != "forget":
                    continue
                nodes += 1
                child = run.tables[nd.children[0]]
                want = _forget_by_dict(g, arith, nd, child)
                got = _forget_table(g, arith, nd, child)
                assert list(got.items()) == list(want.items()), f"{name}, node {i}"
                assert list(table.items()) == list(_drop_dominated(want).items())
                for state in got:
                    _assert_skeleton(state, nd.bag)
    assert nodes > 3000


def test_doomed_pruning_drops_exactly_the_doomed_states(doom_runs):
    # with each join's tables merged in the same order, every table is the
    # unpruned run's table minus its doomed states, in the same order and
    # with the same forests, so the answers are the same
    doomed = 0
    for name, g, ntd, _, pruned, unpruned in doom_runs:
        proc = _processed_sets(ntd)
        for i, table in unpruned.tables.items():
            closed = _closed(g, ntd.nodes[i].bag, proc[i])
            kept = [(s, F) for s, F in table.items() if not _doomed(g, closed, s[0])]
            assert list(pruned.tables[i].items()) == kept, f"{name}, node {i}"
            doomed += len(table) - len(kept)
        assert pruned.forest == unpruned.forest, name
    assert doomed > 50_000


def test_merge_order_never_changes_a_verdict(doom_runs, monkeypatch):
    # join is commutative and associative on sets of states, and doom and
    # dominance are sound after every pairwise merge, so merging each join's
    # tables in child order accepts exactly where smallest-first does, on
    # 129 joins out of 307 where the two orders differ
    reordered = 0
    for name, g, ntd, arith, pruned, _ in doom_runs:
        for nd in ntd.nodes:
            if nd.kind == "join":
                order = _merge_order([pruned.tables[c] for c in nd.children])
                reordered += order != sorted(order)
    assert reordered == 129
    monkeypatch.setattr(stc.dp, "_merge_order", lambda tables: list(range(len(tables))))
    verdicts = set()
    for name, g, ntd, arith, pruned, _ in doom_runs:
        forest = _run_dp(g, ntd, arith).forest
        assert (forest is None) == (pruned.forest is None), name
        verdicts.add(forest is None)
        for F in {forest, pruned.forest} - {None}:
            got = congestion_report(g, SpanningTree(g, F)).max_congestion
            assert got <= getattr(arith, "cap", arith.k), name
    assert verdicts == {False, True}


def _count_join_pairs(monkeypatch):
    """Count the pairs of states joins try: a call of _zip_join or of
    _isomorphisms each."""
    calls = [0]
    for rule in ("_zip_join", "_isomorphisms"):
        real = getattr(stc.dp, rule)

        def counted(*args, real=real):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(stc.dp, rule, counted)
    return calls


def test_smallest_table_first_cuts_the_join_pairs_of_ubp_at_lambda(monkeypatch):
    # ubp at k = lambda = 9 (refuted): the join at bag {3, 4, 5, 6} has
    # three children, two light branches (89 and 408 states, each the top
    # of an inner join of leaf branches at a common separator) and one
    # heavy branch (54 states) that cuts the table down.  Merged in child
    # order, as a chain of binary joins in child order would, the run tries
    # 1,084 pairs; merged smallest first, 660.  Both store 1,239 states
    g = gen_ubp(3, [1, 1, 1]).graph
    ntd = default_nice_decomposition(g)
    (top,) = (nd for nd in ntd.nodes if nd.kind == "join" and nd.bag == {3, 4, 5, 6})
    assert len(top.children) == 3
    calls = _count_join_pairs(monkeypatch)
    counts = {}
    for plan, order in (
        ("smallest first", _merge_order),
        ("child order", lambda tables: list(range(len(tables)))),
    ):
        monkeypatch.setattr(stc.dp, "_merge_order", order)
        calls[0] = 0
        run = _run_dp(g, ntd, ExactArith(9), keep_tables=True)
        assert run.forest is None
        counts[plan] = (calls[0], sum(len(t) for t in run.tables.values()))
    assert counts == {"smallest first": (660, 1239), "child order": (1084, 1239)}


def test_doomed_needs_a_future_edge_at_a_closed_vertex():
    g = path_graph(3)  # 0 - 1 - 2
    closed = frozenset({0})
    assert _doomed(g, closed, [(-1, 0, 1, 0)])  # to an anonymous vertex
    assert _doomed(g, closed, [(0, 2, 1, 0)])  # to a bag non-neighbour
    assert not _doomed(g, closed, [(0, 1, 1, 0)])  # a graph edge may still join
    assert not _doomed(g, closed, [(-1, 0, 0, 0), (0, 2, -1, 0)])  # not future
    assert not _doomed(g, frozenset({1}), [(0, 2, 1, 0), (-1, 2, 1, 0)])
    assert _closed(g, frozenset({0, 1}), frozenset({0, 1})) == frozenset({0})


def test_introduce_tables_are_fixed_points_of_dominance(doom_runs):
    # introduce runs no dominance pass: on these graphs it would drop nothing
    for name, _, ntd, _, pruned, unpruned in doom_runs:
        for run in (pruned, unpruned):
            for i, table in run.tables.items():
                if ntd.nodes[i].kind == "introduce":
                    kept = _drop_dominated(table)
                    assert len(kept) == len(table), f"{name}, node {i}"


def test_inner_merge_drops_doomed_states(monkeypatch):
    # one join of three branches under the bag {0, 1, 2}, which hang 3, 4
    # and 5.  Vertex 0's neighbours are 1, 3 and 5, so it closes when the
    # branches of 5 and 3, the two smallest tables, are merged, one merge
    # before the last; the filter after that inner merge drops the states
    # with a future edge at 0
    g = Graph.from_edges(6, [(0, 1), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    bags = ({0, 1, 2}, {0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 2, 5})
    ntd = make_nice(TreeDecomposition(6, tuple(map(frozenset, bags)),
                                      frozenset({(0, 1), (0, 2), (0, 3)})))
    (join,) = (nd for nd in ntd.nodes if nd.kind == "join")
    merges = []
    real = stc.dp._join_table

    def recorded(arith, t1, t2):
        merges.append((t1, real(arith, t1, t2)))
        return merges[-1][1]

    monkeypatch.setattr(stc.dp, "_join_table", recorded)
    run = _run_dp(g, ntd, ExactArith(2), keep_tables=True)  # stc is 3
    assert _merge_order([run.tables[c] for c in join.children]) == [2, 0, 1]
    (_, inner), (acc, _) = merges
    kept = {s: F for s, F in inner.items() if not _doomed(g, frozenset({0}), s[0])}
    assert len(inner) - len(kept) == 2  # the inner filter drops two states
    assert acc == _drop_dominated(kept)  # and the last merge never sees them
    monkeypatch.setattr(stc.dp, "_doomed", lambda G, closed, edges: False)
    assert run.forest is None and _run_dp(g, ntd, ExactArith(2)).forest is None


def test_refuted_run_stops_at_the_first_empty_table(monkeypatch):
    # grid 4x4 at k = 2: the 26th of 51 nodes in postorder comes out empty
    g = grid_graph(4)
    ntd = default_nice_decomposition(g)
    calls = []
    for rule in ("_leaf_table", "_introduce_table", "_forget_table", "_join_table"):
        real = getattr(stc.dp, rule)

        def counted(*args, real=real):
            calls.append(real)
            return real(*args)

        monkeypatch.setattr(stc.dp, rule, counted)
    kept = _run_dp(g, ntd, ExactArith(2), keep_tables=True)
    post = ntd.postorder()
    first = next(p for p, i in enumerate(post) if not kept.tables[i])
    assert (first, len(post), len(calls)) == (25, 51, 51)
    parent = {c: i for i, nd in enumerate(ntd.nodes) for c in nd.children}
    i = post[first]
    while i != ntd.root:  # every ancestor is empty too
        i = parent[i]
        assert not kept.tables[i]
    calls.clear()
    assert _run_dp(g, ntd, ExactArith(2)) == stc.dp.DPRun(None, None)
    assert len(calls) == first + 1


def test_validator_accepts_grid3_and_small_suite_graphs():
    graphs = [grid_graph(3)] + [g for g in suite_graphs() if g.n <= 7]
    for g in graphs:
        k, _ = solve_stc_tw(g)
        assert validated_tree(g, k) is not None
        if k > 1:
            assert validated_tree(g, k - 1) is None


def test_grouped_joins_decide_gadget_graphs_at_stc():
    # the six of thirteen fixed-seed gadget graphs (triangles and K4s hung
    # on a triangle, n <= 12) whose decomposition has child bags sharing a
    # separator, so make_nice joins them there: the DP accepts at stc, from
    # bounds, and refutes at stc - 1, and every stored entry of both runs
    # passes the node-wise validator
    rng = random.Random(829)
    grouped = []
    for _ in range(13):
        g = hung_gadget_graph(rng, rng.randint(8, 12))
        td = decompose(g)
        ntd = make_nice(td)
        if introduces_saved(td, ntd):
            grouped.append(g.n)
            lam, ub, _ = bounds(g)
            assert lam == ub  # the bounds meet on all six, so both are stc
            forest = _run_dp(g, ntd, ExactArith(lam)).forest
            assert congestion_report(g, SpanningTree(g, forest)).max_congestion == lam
            assert _run_dp(g, ntd, ExactArith(lam - 1)).forest is None
            assert validated_tree(g, lam, ntd) is not None
            assert validated_tree(g, lam - 1, ntd) is None
    assert grouped == [12, 12, 12, 12, 9, 9]


def test_drop_dominated_keeps_only_undominated_states():
    def state(c01, c12, lbl=1):
        return (((0, 1, lbl, c01), (1, 2, 1, c12)), ())

    best = state(2, 3)
    table = {
        state(3, 3): frozenset({(0, 1)}),     # dominated by best
        best: frozenset({(1, 2)}),
        state(1, 5): frozenset(),             # incomparable with best
        state(9, 9, lbl=0): frozenset(),      # different label: own group
        (((0, 2, 1, 7),), ()): frozenset(),   # singleton group
        (((0, -1, 1, 7),), (1,)): frozenset(),
        (((0, -1, 1, 8),), (-1,)): frozenset(),  # anonymous label differs
    }
    kept = _drop_dominated(table)
    assert set(kept) == set(table) - {state(3, 3)}
    assert kept[best] == frozenset({(1, 2)})


def test_bounds_alone_settle_k4_and_long_cycles(monkeypatch):
    # K4: min degree 3 = star congestion; a cycle: min degree 2 = any path.
    # The bounds meet, so no k is run, with or without eps
    def no_dp(*args, **kwargs):
        raise AssertionError("the DP ran although the bounds meet")

    monkeypatch.setattr(stc.dp, "_run_dp", no_dp)
    for g, want in [(complete_graph(4), 3), (cycle_graph(300), 2)]:
        k, T = solve_stc_tw(g)
        assert k == want == congestion_report(g, T).max_congestion
    for g, eps, want in [(complete_graph(4), 0.2, 3), (cycle_graph(300), 0.1, 2)]:
        k, T = solve_approx_tw(g, eps)
        assert k == want == congestion_report(g, T).max_congestion


def test_dominance_keeps_grid4_tables_small(kept_runs, doom_runs):
    # every state stored on the 4x4 grid at k = 4 (50,356 without any
    # pruning), on ubp at k = 10 and on K5,5 at k = 4 (refuted); any change
    # to the node rules, the canonical form or the pruning that keeps a
    # different state set moves these counts
    k55 = next(pruned for name, *_, pruned, _ in doom_runs if name == "K5,5 k=4")
    assert k55.forest is None
    assert sum(len(t) for t in k55.tables.values()) == 43_587
    for name, stored in (("grid4", 13_004), ("ubp", 1_479)):
        *_, run = kept_runs[name]
        assert run.forest is not None
        assert sum(len(t) for t in run.tables.values()) == stored


def test_skeleton_size_stays_bounded():
    g = grid_graph(3)
    ntd = default_nice_decomposition(g)
    run = _run_dp(g, ntd, ExactArith(3), keep_tables=True)
    assert run.forest is not None
    for i, table in run.tables.items():
        bag = ntd.nodes[i].bag
        for state in table:
            edges, anon_labels = state
            assert len(bag) + len(anon_labels) <= 2 * len(bag) + 1


def test_approx_within_guarantee():
    rng = random.Random(832)
    cases = []
    for _ in range(20):
        n = rng.randrange(3, 8)
        m = rng.randrange(n - 1, min(n * (n - 1) // 2, n + 5) + 1)
        g = random_connected_graph(rng, n, m)
        cases.append((g, stc_exact(g)[0]))
    # lambda = UB on every graph above; on these the certified stop can fire
    gaps = [(g, k) for _, g, k in gap_graphs()]
    assert [solve_stc_tw(g)[0] for g, _ in gaps] == [k for _, k in gaps]
    for g, k in cases + gaps:
        for eps in (0.1, 0.5, 1.0):
            ka, T = solve_approx_tw(g, eps)
            assert congestion_report(g, T).max_congestion == ka
            assert k <= ka <= math.ceil((1 + Fraction(str(eps))) * k)


def test_approx_rejects_bad_eps():
    with pytest.raises(ValueError):
        solve_approx_tw(cycle_graph(4), 0)
    with pytest.raises(ValueError):
        solve_approx_tw(cycle_graph(4), -0.5)


def test_approx_tiny_eps_returns_stc():
    # eps * k < 1 on every k of the scan: exact counters, no 1e9-point grid
    assert solve_approx_tw(cycle_graph(4), 1e-9)[0] == 2
    assert solve_approx_tw(cycle_graph(5), Fraction(1, 10**9))[0] == 2


def _reference_round_up(arith, x):
    j = bisect_left(arith.vals, x)
    return None if x > arith.cap or j == len(arith.vals) else j


def test_rounded_tables_match_fraction_arithmetic():
    for eps, h, k in [
        (Fraction(1, 10), 19, 1),
        (Fraction(1, 2), 5, 6),
        (Fraction(1), 3, 10),
        (Fraction(1, 2), 1, 3),
    ]:
        arith = RoundedArith(k, eps, h)
        n = len(arith.vals)
        assert arith.vals[-1] <= arith.cap
        for _ in range(2):  # the second pass reads the filled tables
            for idx in range(n):
                for r in range(1, 6):
                    want = _reference_round_up(arith, arith.vals[idx] + r)
                    assert arith.add_int(idx, r) == want
            for a in range(n):
                for b in range(n):
                    want = _reference_round_up(arith, arith.vals[a] + arith.vals[b])
                    assert arith.join(a, b) == want
        assert None in arith._add.values() and None in arith._join.values()


def _count_rounded_runs(monkeypatch):
    ks = []

    class CountingArith(RoundedArith):
        def __init__(self, k, eps, height):
            ks.append(k)
            super().__init__(k, eps, height)

    monkeypatch.setattr(stc.dp, "RoundedArith", CountingArith)
    return ks


def test_approx_matches_exact_when_eps_stc_below_one(monkeypatch):
    ks = _count_rounded_runs(monkeypatch)
    rng = random.Random(835)
    for _ in range(15):
        n = rng.randrange(3, 9)
        m = rng.randrange(n - 1, min(n * (n - 1) // 2, n + 6) + 1)
        g = random_connected_graph(rng, n, m)
        k, _ = solve_stc_tw(g)
        eps = Fraction(1, k + 1)
        ka, T = solve_approx_tw(g, eps)
        assert ka == k == congestion_report(g, T).max_congestion
    assert ks == []


def _record_runs(monkeypatch, refuse=False):
    """Patch _run_dp to log each k it is asked for; with refuse, answer no."""
    tried = []
    run_dp = stc.dp._run_dp

    def recording(G, ntd, arith, **kw):
        tried.append(arith.k)
        return stc.dp.DPRun(None, None) if refuse else run_dp(G, ntd, arith, **kw)

    monkeypatch.setattr(stc.dp, "_run_dp", recording)
    return tried


def test_approx_rounds_when_eps_k_reaches_one(monkeypatch):
    ks = _count_rounded_runs(monkeypatch)
    g = grid_graph(2, 30)  # lambda 3 < UB 5
    ka, T = solve_approx_tw(g, Fraction(1, 2))
    assert ks[:1] == [2]  # eps * k = 1 at the first k tried, ceil(3 / (3/2))
    assert congestion_report(g, T).max_congestion == ka == 4


def test_approx_scan_starts_at_degree_bound(monkeypatch):
    tried = _record_runs(monkeypatch)
    g = grid_graph(2, 30)  # lambda 3 < UB 5
    ka, _ = solve_approx_tw(g, Fraction(1, 2))
    assert tried[0] == 2 and ka <= 5  # ceil(3 / 1.5) = 2, refuted
    tried.clear()
    ka, _ = solve_approx_tw(g, Fraction(1, 10))
    assert tried == [3] and ka == 3  # ceil(3 / 1.1) = 3, accepted


def test_approx_never_runs_the_dp_at_or_above_the_bfs_bound(monkeypatch):
    tried = _record_runs(monkeypatch)
    # the 2x30 ladder: lambda 3 < UB 5, so the scan starts at
    # ceil(lam / (1+eps)) unless UB <= (1+eps) * lam already certifies UB
    g = grid_graph(2, 30)
    lam, ub, _ = stc.bounds.bounds(g)
    assert (lam, ub) == (3, 5) and ub <= stc.bounds._best_bfs_tree(g)[0] == 15
    # first runs ceil(3 / 1.1) = 3 and ceil(3 / 1.5) = 2; at eps 1, 5 <= 2 * 3
    for eps, first in ((0.1, [3]), (0.5, [2]), (1, [])):
        tried.clear()
        solve_approx_tw(g, eps)
        assert tried[:1] == first
        assert all(k < ub for k in tried)
    # graphs of at most ORACLE_CAP vertices take the subset step: no DP run
    rng = random.Random(836)
    for _ in range(12):
        n = rng.randrange(4, 9)
        m = rng.randrange(n - 1, min(n * (n - 1) // 2, n + 6) + 1)
        g = random_connected_graph(rng, n, m)
        for eps in (0.1, 0.5, 1):
            tried.clear()
            solve_approx_tw(g, eps)
            assert tried == []


def test_approx_runs_no_dp_where_the_bounds_meet(monkeypatch):
    def no_dp(*args, **kwargs):
        raise AssertionError("the DP ran although lambda = UB")

    monkeypatch.setattr(stc.dp, "_run_dp", no_dp)
    for g, want in ((PETERSEN, 5), (grid_graph(4), 4), (complete_bipartite(5, 5), 8)):
        for eps in (0.5, 1):
            k, T = solve_approx_tw(g, eps)
            assert k == want == congestion_report(g, T).max_congestion


def test_approx_is_never_above_the_best_bfs_tree():
    # at eps 1 a rounded run may accept with a tree above the BFS bound
    # ((1+eps)k can exceed UB); the driver then returns the BFS tree
    for idx, g in enumerate(suite_graphs()):
        ub, _ = stc.bounds._best_bfs_tree(g)
        ka, T = solve_approx_tw(g, 1)
        assert congestion_report(g, T).max_congestion == ka
        assert ka <= stc.bounds.bounds(g)[1] <= ub, f"suite graph #{idx}: {ka} > {ub}"


def test_driver_rejects_a_forest_over_its_cap(monkeypatch):
    # the 2x30 ladder: lower bound 3 < upper bound 5, so the DP runs at
    # k = 3 (exact) and, at eps 1/2, at k = ceil(3 / 1.5) = 2 with rounded
    # counters capped at 3; the patched run answers with the best BFS tree
    # (congestion 15)
    g = grid_graph(2, 30)
    assert stc.bounds.bounds(g)[:2] == (3, 5)
    _, T_bfs = stc.bounds._best_bfs_tree(g)
    assert congestion_report(g, T_bfs).max_congestion == 15

    def too_congested(G, ntd, arith, **kw):
        return stc.dp.DPRun(T_bfs.edges, None)

    monkeypatch.setattr(stc.dp, "_run_dp", too_congested)
    with pytest.raises(AssertionError, match="congestion 15 > 3 at k = 3"):
        solve_stc_tw(g)
    ks = _count_rounded_runs(monkeypatch)
    with pytest.raises(AssertionError, match="congestion 15 > 3 at k = 2"):
        solve_approx_tw(g, Fraction(1, 2))
    assert ks == [2]


def test_driver_rejects_a_tree_below_a_refused_k(monkeypatch):
    # the 2x30 ladder: lambda 3 = stc, UB 5.  A run that refuses k = 3 and
    # then accepts k = 4 with a real forest of congestion 3 refused a k it
    # should have accepted; the tree is within its cap 4, but not above 3
    g = grid_graph(2, 30)
    real = stc.dp._run_dp

    def refuses_three(G, ntd, arith, **kw):
        if arith.k == 3:
            return stc.dp.DPRun(None, None)
        return real(G, ntd, ExactArith(3), **kw)

    monkeypatch.setattr(stc.dp, "_run_dp", refuses_three)
    with pytest.raises(AssertionError, match="congestion 3 refused at k = 3"):
        solve_stc_tw(g)


def test_approx_returns_the_certified_bound_tree_without_a_run(monkeypatch):
    # ubp: lambda 9, UB 10, and 10 <= (1+eps) * 9 for every eps >= 1/9
    def no_dp(*args, **kwargs):
        raise AssertionError("the DP ran although UB <= (1+eps) * lambda")

    monkeypatch.setattr(stc.dp, "_run_dp", no_dp)
    monkeypatch.setattr(stc.dp, "default_nice_decomposition", no_dp)
    g = gen_ubp(3, [1, 1, 1]).graph
    for eps in (Fraction(1, 8), Fraction(1, 2), 1):
        k, T = solve_approx_tw(g, eps)
        assert k == 10 == congestion_report(g, T).max_congestion


def test_approx_below_the_certified_slack_runs_exact_at_lambda(monkeypatch):
    # ubp at eps 1/10: 10 > 1.1 * 9, so the scan runs k = 9, where
    # eps * k < 1 gives exact counters; the run refutes and 10 is certified
    tried = _record_runs(monkeypatch)
    ks = _count_rounded_runs(monkeypatch)
    g = gen_ubp(3, [1, 1, 1]).graph
    k, T = solve_approx_tw(g, Fraction(1, 10))
    assert tried == [9] and ks == []
    assert k == 10 == congestion_report(g, T).max_congestion


def test_approx_refusals_raise_the_certified_lower_bound(monkeypatch):
    # the ladder at eps 1/2: lambda 3, UB 5 > 4.5; refusing k = 2 and 3
    # proves stc >= 4, and 5 <= 1.5 * 4 returns the UB tree before k = 4
    tried = _record_runs(monkeypatch, refuse=True)
    g = grid_graph(2, 30)
    k, T = solve_approx_tw(g, Fraction(1, 2))
    assert tried == [2, 3]
    assert k == 5 == congestion_report(g, T).max_congestion


def test_approx_rounding_invariants_hold_nodewise():
    rng = random.Random(833)
    graphs = [cycle_graph(5), complete_graph(4), grid_graph(2, 3)]
    for _ in range(3):
        n = rng.randrange(4, 8)
        graphs.append(random_connected_graph(rng, n, rng.randrange(n - 1, n + 4)))
    # ubp: joins of two to six children, three of them inner joins at a
    # separator, merged smallest table first
    graphs.append(gen_ubp(3, [1, 1, 1]).graph)
    for g in graphs:
        for eps in (0.5, 1.0):
            check_approx_invariant(g, eps)


@pytest.fixture
def dp_decisions(monkeypatch):
    """The k of every solve_exact_tw call that `solve` makes."""
    calls = []
    real = stc.route.solve_exact_tw

    def spy(G, k, *args):
        calls.append(k)
        return real(G, k, *args)

    monkeypatch.setattr(stc.route, "solve_exact_tw", spy)
    return calls


def test_winwin_k55_is_no(dp_decisions):
    # lambda(K5,5) = 5 > 4 refutes with no DP run; the DP's own refutation
    # of K5,5 at k = 4 is pinned in test_dominance_keeps_grid4_tables_small
    assert solve(complete_bipartite(5, 5), 4, alg="dp") == ("dp", None, None)
    assert dp_decisions == []


def test_winwin_biclique_certificate_route(dp_decisions):
    # K15,15 holds a K_{2,2}: two vertices on one side are joined by 15
    # edge-disjoint paths through the other side, so lambda > k = 1
    g = complete_bipartite(15, 15)
    assert _min_cut(g, 0, 1)[0] == 15
    assert lower_bound(g, 2) > 1
    assert solve(g, 1, alg="dp") == ("dp", None, None)
    assert dp_decisions == []


def test_winwin_yes_carries_tree(dp_decisions):
    g = cycle_graph(4)
    alg, got, tree = solve(g, 2, alg="dp")
    assert alg == "dp" and got == congestion_report(g, tree).max_congestion <= 2
    assert dp_decisions == [2]  # lambda(C4) = 2 does not refute k = 2


def test_winwin_matches_dp_on_random_graphs():
    rng = random.Random(834)
    for _ in range(10):
        n = rng.randrange(3, 8)
        g = random_connected_graph(rng, n, rng.randrange(n - 1, n + 5))
        k, _ = solve_stc_tw(g)
        alg, got, tree = solve(g, k, alg="dp")
        assert alg == "dp" and got <= k and tree is not None
        if k > 1:
            assert solve(g, k - 1, alg="dp") == ("dp", None, None)


def test_decision_entry_matches_the_dp_on_gap_graphs():
    # lambda < UB on each: below lambda the bound refutes, from lambda up
    # the DP decides, and both agree with the raw DP at every k
    for name, g, want in gap_graphs():
        for k in range(1, want + 2):
            refuted = solve(g, k, alg="dp")[2] is None
            assert refuted == (solve_exact_tw(g, k) is None) == (k < want), (name, k)
