"""Independent answer checker: shares no code with ``stc``.

A returned edge set must be a spanning tree of the input graph, and its
congestion is measured by counting, for every tree edge, the graph edges
that cross the cut the edge's removal leaves.  Tree edges other than the
removed one never cross that cut (both of their ends stay in one part), so
the count is 1 plus the crossing non-tree edges.

``brute_force_stc`` enumerates every (n-1)-edge subset for n <= 10.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

BRUTE_FORCE_MAX_N = 10


def tree_problem(n: int, edges, tree) -> str | None:
    """None if ``tree`` (0-based pairs) is a spanning tree of the graph."""
    graph = set(edges)
    if len(tree) != n - 1:
        return f"{len(tree)} edges, a spanning tree of {n} vertices has {n - 1}"
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in tree:
        if not (0 <= u < n and 0 <= v < n) or (min(u, v), max(u, v)) not in graph:
            return f"edge {u + 1}-{v + 1} is not in the graph"
        ru, rv = find(u), find(v)
        if ru == rv:
            return f"edge {u + 1}-{v + 1} closes a cycle"
        parent[ru] = rv
    return None


def tree_congestion(n: int, edges, tree) -> int:
    """Max over tree edges of the number of graph edges crossing its cut."""
    if n == 1:
        return 0
    adj = [[] for _ in range(n)]
    for u, v in tree:
        adj[u].append(v)
        adj[v].append(u)
    # Euler-tour intervals: subtree(v) = {x : tin[v] <= tin[x] <= tout[v]}
    tin = [0] * n
    tout = [0] * n
    seen = [False] * n
    seen[0] = True
    clock = 0
    stack = [(0, iter(adj[0]))]
    tin[0] = 0
    while stack:
        v, it = stack[-1]
        for u in it:
            if not seen[u]:
                seen[u] = True
                clock += 1
                tin[u] = clock
                stack.append((u, iter(adj[u])))
                break
        else:
            tout[v] = clock
            stack.pop()
    in_tree = {(min(u, v), max(u, v)) for u, v in tree}
    chords = [(tin[a], tin[b]) for a, b in edges if (a, b) not in in_tree]
    worst = 0
    for v in range(1, n):
        lo, hi = tin[v], tout[v]
        cut = 1 + sum(1 for a, b in chords if (lo <= a <= hi) != (lo <= b <= hi))
        if cut > worst:
            worst = cut
    return worst


def brute_force_stc(n: int, edges) -> int:
    """Exact stc over all (n-1)-subsets of edges, cuts read from a table.

    Stops early at the second-smallest degree: every tree has two leaves,
    and a leaf's edge carries the leaf's degree.
    """
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is for n <= {BRUTE_FORCE_MAX_N}, got {n}")
    if n == 1:
        return 0
    masks = [(1 << u) | (1 << v) for u, v in edges]
    cut = [0] * (1 << n)
    for s in range(1 << n):
        cut[s] = sum(1 for a, b in edges if ((s >> a) & 1) != ((s >> b) & 1))
    floor = sorted(sum(1 for e in edges if v in e) for v in range(n))[1]
    best = math.inf
    for tree in itertools.combinations(range(len(edges)), n - 1):
        parent = list(range(n))
        ok = True
        for i in tree:
            a, b = edges[i]
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a == b:
                ok = False
                break
            parent[a] = b
        if not ok:
            continue
        worst = _tree_cut_max([edges[i] for i in tree], n, cut, best)
        if worst < best:
            best = worst
            if best == floor:
                break
    return best


def _tree_cut_max(tree, n, cut, stop) -> int:
    adj = [[] for _ in range(n)]
    for u, v in tree:
        adj[u].append(v)
        adj[v].append(u)
    order = [0]
    parent = [-1] * n
    parent[0] = 0
    for v in order:
        for u in adj[v]:
            if parent[u] == -1:
                parent[u] = v
                order.append(u)
    sub = [1 << v for v in range(n)]
    worst = 0
    for v in reversed(order[1:]):
        c = cut[sub[v]]
        if c > worst:
            worst = c
            if worst >= stop:
                return worst
        sub[parent[v]] |= sub[v]
    return worst


def approx_bound(stc: int, eps: str) -> int:
    return math.ceil((1 + Fraction(eps)) * stc)
