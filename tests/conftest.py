"""Shared graph builders and helpers for the test suite."""
from __future__ import annotations

import itertools
import random

from stc.graph import Graph, connected_components
from stc.reductions import gen_ubp


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def grid_graph(rows: int, cols: int | None = None) -> Graph:
    cols = rows if cols is None else cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def random_connected_graph(rng: random.Random, n: int, m: int) -> Graph:
    """Random tree plus m - (n-1) extra edges; m is clamped to the simple range."""
    m = max(n - 1, min(m, n * (n - 1) // 2))
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    pool = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    rng.shuffle(pool)
    for e in pool[: m - len(edges)]:
        edges.add(e)
    return Graph.from_edges(n, edges)


def subdivided(G: Graph, times: int) -> Graph:
    """G with every edge replaced by a path through `times` new vertices."""
    edges, n = [], G.n
    for u, v in G.sorted_edges():
        path = [u, *range(n, n + times), v]
        n += times
        edges += zip(path, path[1:])
    return Graph.from_edges(n, edges)


def suite_graphs(count: int = 200) -> list[Graph]:
    """The shared random-instance suite: connected, n <= 9, m <= 14."""
    rng = random.Random(101)
    out = []
    for _ in range(count):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(14, n * (n - 1) // 2))
        out.append(random_connected_graph(rng, n, m))
    return out


def hung_gadget_graph(rng: random.Random, n: int) -> Graph:
    """The triangle 0, 1, 2 with gadgets hung on it until there are n
    vertices: a triangle on one of its edges (a vertex joined to both
    ends), a K4 on the triangle itself, or a K4 on one of its edges (two
    adjacent vertices joined to both ends).  Bags holding a gadget share
    the edge or triangle it hangs on as their separator."""
    edges = {(0, 1), (0, 2), (1, 2)}
    v = 3
    while v < n:
        kind = rng.randrange(3)
        a, b = rng.sample(range(3), 2)
        if kind == 0:
            edges |= {(a, v), (b, v)}
            v += 1
        elif kind == 1:
            edges |= {(0, v), (1, v), (2, v)}
            v += 1
        elif v + 1 < n:
            edges |= {(a, v), (b, v), (a, v + 1), (b, v + 1), (v, v + 1)}
            v += 2
    return Graph.from_edges(n, edges)


def gap_graphs() -> list[tuple[str, Graph, int]]:
    """(name, graph, stc) for graphs whose lower bound lambda is below the
    upper bound UB of stc.bounds: ubp (lambda 9, UB 10 = stc), the 2x30
    ladder (lambda 3 = stc, UB 5) and graph #3 of tests/test_bounds.py's
    test_differential_above_the_cap (lambda 3, UB 4 = stc)."""
    rng = random.Random(1315)
    for _ in range(4):
        n = rng.randint(13, 15)
        differential = random_connected_graph(rng, n, rng.randint(n + 2, 3 * n // 2))
    return [
        ("ubp", gen_ubp(3, [1, 1, 1]).graph, 10),
        ("ladder 2x30", grid_graph(2, 30), 3),
        ("differential #3", differential, 4),
    ]


def vertex_integrity_set(G: Graph, cap: int) -> frozenset[int] | None:
    """Lex-smallest S with |S| + max component of G - S minimal, up to cap."""
    for k in range(1, cap + 1):
        for ssize in range(0, k + 1):
            for S in itertools.combinations(range(G.n), ssize):
                comps = connected_components(G, skip=frozenset(S))
                if all(len(c) <= k - ssize for c in comps):
                    return frozenset(S)
    return None
