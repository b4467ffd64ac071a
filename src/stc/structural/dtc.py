"""Distance-to-clique solver.

With modulator S (|S| = q) and clique C (|C| = N), small instances defer to
the kernel pipeline (`solve_fes`).  Large ones are covered by a structure
theorem: some optimal tree consists of a center r, all but at most q clique
vertices as leaves of r, and an arbitrary arrangement of the remaining <= 2q
vertices.
Twin clique vertices (same neighborhood in S) are interchangeable, so the
search runs over twin-class representatives, and each candidate is scored by
local cut evaluation: a leaf's edge has congestion deg(leaf); any other edge
separates a small vertex set D from the rest, with congestion
sum(deg(D)) - 2|E(G[D])|.
"""
from __future__ import annotations

import itertools

from ..errors import GraphError
from ..graph import (
    Graph,
    SpanningTree,
    congestion_report,
    edge_key,
    require_connected,
    twin_classes,
)
from .fes import solve_fes
from .vi import _bounded_counts, checked_modulator


def _check_modulator(G: Graph, S: frozenset[int]) -> list[int]:
    """The clique G - S, sorted; GraphError when it is not one."""
    C = [v for v in range(G.n) if v not in S]
    for i, u in enumerate(C):
        for v in C[i + 1:]:
            if not G.has_edge(u, v):
                raise GraphError(f"G - S is not a clique: {u} and {v} not adjacent")
    return C


def small_case_threshold(q: int) -> int:
    return 2 * q**3 + 4 * q


def solve_dtc(G: Graph, S) -> tuple[int, SpanningTree]:
    """Exact stc given a clique modulator S."""
    require_connected(G)
    S = checked_modulator(G, S)
    C = _check_modulator(G, S)
    q, N = len(S), len(C)
    if N <= small_case_threshold(q):
        return solve_fes(G)

    deg = [G.degree(v) for v in range(G.n)]
    classes = twin_classes(G, S)  # classes of C by neighborhood in S
    class_of = {}
    for idx, cls in enumerate(classes):
        for v in cls:
            class_of[v] = idx
    reps = [cls[0] for cls in classes]
    class_keys = [frozenset(G.neighbors(cls[0]) & S) for cls in classes]

    best: tuple[int, tuple] | None = None
    for r in reps + sorted(S):
        # Q is a multiset over twin classes; actual members are the smallest
        # ids of each class distinct from r
        per_class_cap = [
            min(q, len(cls) - (1 if r in cls else 0)) for cls in classes
        ]
        for counts in _bounded_counts(per_class_cap, q):
            Q: list[int] = []
            for idx, cnt in enumerate(counts):
                picked = [v for v in classes[idx] if v != r][:cnt]
                Q.extend(picked)
            leaf_worst = 0
            ok = True
            for idx, cls in enumerate(classes):
                used = counts[idx] + (1 if r in cls else 0)
                if len(cls) > used:
                    # leftover class members hang off r directly
                    if r in S and r not in class_keys[idx]:
                        ok = False
                        break
                    leaf_worst = max(leaf_worst, deg[cls[0]])
            if not ok:
                continue
            others = sorted((S | set(Q)) - {r})
            cand = _best_arrangement(G, deg, r, others, leaf_worst)
            if cand is not None and (best is None or cand[0] < best[0]):
                best = (cand[0], (r, list(Q), cand[1]))
    assert best is not None, "no valid arrangement found"
    k, (r, Q, parent) = best
    edges = set()
    for c in C:
        if c != r and c not in Q:
            edges.add(edge_key(c, r))
    for x, p in parent.items():
        edges.add(edge_key(x, p))
    T = SpanningTree(G, frozenset(edges))
    got = congestion_report(G, T).max_congestion
    assert got == k, f"local evaluation {k} disagrees with report {got}"
    return k, T


def _best_arrangement(G, deg, r, others, leaf_worst):
    """Try every parent map of `others` into `others` + r; local scoring."""
    best = None
    slots = [r] + others
    for parents in itertools.product(slots, repeat=len(others)):
        parent = {}
        ok = True
        for x, p in zip(others, parents):
            if p == x or not G.has_edge(x, p):
                ok = False
                break
            parent[x] = p
        if not ok:
            continue
        # must be a forest hanging from r
        depth_ok = True
        for x in others:
            seen = {x}
            cur = x
            while cur != r:
                cur = parent[cur]
                if cur in seen:
                    depth_ok = False
                    break
                seen.add(cur)
            if not depth_ok:
                break
        if not depth_ok:
            continue
        desc = {x: {x} for x in others}
        for x in others:
            cur = parent[x]
            while cur != r:
                desc[cur].add(x)
                cur = parent[cur]
        worst = leaf_worst
        for x in others:
            D = desc[x]
            inner = sum(1 for a in D for b in G.neighbors(a) if b in D) // 2
            cut = sum(deg[a] for a in D) - 2 * inner
            worst = max(worst, cut)
            if best is not None and worst >= best[0]:
                break
        if best is None or worst < best[0]:
            best = (worst, dict(parent))
    return best
