"""Reference checkers for the treewidth DP, for tiny inputs only.

`make_validator` checks the consistent-solution properties of every stored
table entry through the `_run_dp(validator=...)` hook, and `validated_tree`
runs one exact decision with it.  `check_approx_invariant` asserts the
two-sided rounding invariant of the approximation scheme at every node.
Both search exhaustively, so they are test code, not library code;
`subtree_heights` gives the node heights the invariant is stated with,
and `introduces_saved` tells whether make_nice joined children at a shared
separator.
`_decode` turns a stored state into adjacency dicts, the form these checks
and the tests' reference rules work on, and `_path` walks such a form.
"""
from __future__ import annotations

import itertools
import math

from stc.decomposition import NiceTreeDecomposition, TreeDecomposition
from stc.dp import (
    ExactArith,
    RoundedArith,
    _checked_ntd,
    _isomorphisms,
    _run_dp,
    _shape_key,
    _to_fraction,
    solve_stc_tw,
)
from stc.graph import (
    Edge,
    Graph,
    SpanningTree,
    congestion_report,
    edge_key,
    require_connected,
)


def _decode(state, bag: frozenset[int]):
    """State to working form: adjacency {v: {u: (label, c)}} and vertex labels."""
    edges, anon_labels = state
    adj: dict[int, dict[int, tuple[int, int]]] = {v: {} for v in bag}
    vlab: dict[int, int] = {v: 0 for v in bag}
    for i, lbl in enumerate(anon_labels):
        a = -(i + 1)
        adj[a] = {}
        vlab[a] = lbl
    for u, v, lbl, c in edges:
        adj[u][v] = (lbl, c)
        adj[v][u] = (lbl, c)
    return adj, vlab


def _path(adjacency, a: int, b: int) -> list[Edge] | None:
    """Edges (sorted pairs) of the unique tree path a -> b, None if there is none."""
    if a not in adjacency or b not in adjacency:
        return None
    prev = {a: a}
    stack = [a]
    while stack:
        v = stack.pop()
        if v == b:
            break
        for u in adjacency[v]:
            if u not in prev:
                prev[u] = v
                stack.append(u)
    if b not in prev:
        return None
    path = []
    v = b
    while v != a:
        path.append((v, prev[v]) if v < prev[v] else (prev[v], v))
        v = prev[v]
    return path


def subtree_heights(ntd: NiceTreeDecomposition) -> dict[int, int]:
    """Per node: longest downward distance to a leaf, a join of c children
    counting as c - 1 levels (the roundings of its pairwise merges)."""
    h: dict[int, int] = {}
    for i in ntd.postorder():
        nd = ntd.nodes[i]
        kids = nd.children
        step = len(kids) - 1 if nd.kind == "join" else 1
        h[i] = 0 if not kids else step + max(h[c] for c in kids)
    return h


def introduces_saved(td: TreeDecomposition, ntd: NiceTreeDecomposition) -> int:
    """How many fewer introduce nodes ntd = make_nice(td) has than one join
    of c chains per bag of c >= 2 children would: with td rooted at bag 0,
    that shape introduces n + sum of (c - 1)|bag| vertices.  Positive
    exactly when some child bags share a separator smaller than their
    parent's bag, which make_nice joins there."""
    degree = [0] * len(td.bags)
    for i, j in td.tree:
        degree[i] += 1
        degree[j] += 1
    ungrouped = td.n + sum(
        (c - 1) * len(bag)
        for x, bag in enumerate(td.bags)
        if (c := degree[x] - (x != 0)) >= 2
    )
    return ungrouped - sum(nd.kind == "introduce" for nd in ntd.nodes)


def validated_tree(
    G: Graph, k: int, ntd: NiceTreeDecomposition | None = None
) -> SpanningTree | None:
    """`solve_exact_tw(G, k, ntd)` with every stored entry validated."""
    require_connected(G)
    ntd = _checked_ntd(G, ntd)
    run = _run_dp(G, ntd, ExactArith(k), validator=make_validator(G, k))
    if run.forest is None:
        return None
    T = SpanningTree(G, run.forest)
    got = congestion_report(G, T).max_congestion
    assert got <= k, f"DP returned congestion {got} > {k}"
    return T


def make_validator(G: Graph, k: int):
    """Check the consistent-solution properties of every stored entry.

    Past anonymous vertices are existential branch points; the checker
    searches all embeddings into the processed region, so keep it to tiny
    inputs.
    """

    def validator(bag, proc, state, F):
        adj, vlab = _decode(state, bag)
        # property 1: forest inside the processed subgraph
        parent = {x: x for x in proc}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in F:
            if edge_key(u, v) not in G.edges or u not in proc or v not in proc:
                return f"forest edge ({u},{v}) outside G[T_t]"
            ru, rv = find(u), find(v)
            if ru == rv:
                return "forest has a cycle"
            parent[ru] = rv
        past = sorted(x for x in adj if x < 0 and vlab[x] == -1)
        candidates = sorted(set(proc) - set(bag))
        msg = "no embedding of past branch vertices fits"
        for emb in itertools.permutations(candidates, len(past)):
            eta = dict(zip(past, emb))
            msg = check_embedding(G, bag, proc, adj, vlab, F, k, eta)
            if msg is None:
                return None
        return msg

    return validator


def check_embedding(G, bag, proc, adj, vlab, F, k, eta):
    def real(x):
        return eta.get(x, x)

    # property 4: forest plus future edges forms a tree
    tnodes = set(proc)
    tedges = set(F)
    for x in adj:
        for y, (lbl, _c) in adj[x].items():
            if x < y and lbl == 1:
                tnodes.update((x, y))
                tedges.add((x, y))
    tadj: dict[int, list[int]] = {v: [] for v in tnodes}
    for u, v in tedges:
        tadj[u].append(v)
        tadj[v].append(u)
    if tnodes:
        start = next(iter(tnodes))
        seen = {start}
        stack = [start]
        while stack:
            a = stack.pop()
            for b in tadj[a]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        if seen != tnodes or len(tedges) != len(tnodes) - 1:
            return "F plus future edges is not a tree"
    # detour crossings induced by processed edges outside the bag
    H = [
        e
        for e in G.edges
        if e[0] in proc and e[1] in proc and not (e[0] in bag and e[1] in bag)
    ]
    cross: dict[tuple[int, int], int] = {tuple(sorted(e)): 0 for e in tedges}
    for a, b in H:
        path = _path(tadj, a, b)
        if path is None:
            return f"processed edge ({a},{b}) has no detour"
        for e in path:
            cross[e] += 1
    # properties 2, 3, 5, 6
    fadj: dict[int, list[int]] = {v: [] for v in proc}
    for u, v in F:
        fadj[u].append(v)
        fadj[v].append(u)
    for x in adj:
        for y, (lbl, c) in adj[x].items():
            if x > y:
                continue
            if lbl == 0:
                if edge_key(x, y) not in F:
                    return f"present skeleton edge ({x},{y}) missing from F"
                if cross[edge_key(x, y)] != c:
                    return "counter mismatch on a present edge"
            elif lbl == 1:
                if cross[(x, y) if x < y else (y, x)] != c:
                    return "counter mismatch on a future edge"
            else:
                a, b = real(x), real(y)
                path = _path(fadj, a, b)
                if path is None:
                    return f"past skeleton edge ({x},{y}) has no F path"
                for u, v in path:
                    if u in bag and v in bag:
                        return "past path uses a bag-internal edge"
                    if cross[(u, v)] > c:
                        return "past path exceeds its counter"
    # property 7
    if any(val > k for val in cross.values()):
        return "an edge of F plus future exceeds k"
    return None


def check_approx_invariant(G: Graph, eps, ntd: NiceTreeDecomposition | None = None):
    """Assert the two-sided rounding invariant at every node (tiny inputs).

    For each exact state some approx state overestimates it by at most
    (1+delta)^height(t) per edge, and each approx state's counters upper
    bound some exact run's counters (at the relaxed cap floor((1+eps)k)).
    """
    require_connected(G)
    eps = _to_fraction(eps)
    ntd = _checked_ntd(G, ntd)
    k, _ = solve_stc_tw(G)
    if k == 0:
        return
    h = ntd.height
    arith = RoundedArith(k, eps, h)
    relaxed_cap = math.floor((1 + eps) * k)
    exact = _run_dp(G, ntd, ExactArith(k), keep_tables=True)
    approx = _run_dp(G, ntd, arith, keep_tables=True)
    exact_relaxed = _run_dp(G, ntd, ExactArith(relaxed_cap), keep_tables=True)
    heights = subtree_heights(ntd)

    def decoded(table, bag):
        return [(s, *_decode(s, bag)) for s in table]

    def dominates(sA, adjA, vlabA, sB, adjB, vlabB, cA_bound_fn):
        """Some isomorphism under which every counter pair obeys the bound."""
        for phi in _isomorphisms(sA, sB):
            if any(vlabB[phi[x]] != vlabA[x] for x in vlabA if x < 0):
                continue
            ok = True
            for x in adjA:
                for y, (lA, cA) in adjA[x].items():
                    if x > y:
                        continue
                    a, b = phi.get(x, x), phi.get(y, y)
                    lB, cB = adjB[a][b]
                    if lB != lA or not cA_bound_fn(cA, cB):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
        return False

    def check(tableA, tableB, bag, bound, msg, i):
        buckets: dict = {}
        for B in decoded(tableB, bag):
            buckets.setdefault(_shape_key(B[0]), []).append(B)
        for A in decoded(tableA, bag):
            assert any(
                dominates(*A, *B, bound) for B in buckets.get(_shape_key(A[0]), ())
            ), f"node {i}: {msg}"

    for i in exact.tables:
        bag = ntd.nodes[i].bag
        factor = (1 + arith.delta) ** heights[i]
        check(
            exact.tables[i], approx.tables[i], bag,
            lambda cE, cA: arith.vals[cA] <= factor * cE,
            "exact state has no rounded shadow", i,
        )
        check(
            approx.tables[i], exact_relaxed.tables[i], bag,
            lambda cA, cE: cE <= math.ceil(arith.vals[cA]),
            "rounded state dominates no exact state", i,
        )
