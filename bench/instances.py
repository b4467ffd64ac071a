"""Seeded instance generators and the workloads' request lists.

Graphs are plain ``(n, edges)`` pairs with 0-based, normalized edge tuples,
so this module and the checker share nothing with ``stc``.  The only calls
into ``stc`` are the hardness generators ``gen_grid`` and ``gen_ubp``, which
the benchmark times as the ``reductions`` layer.

What the seed changes.  The benchmark's spread across seeds must stay well
inside its bounds, so the seed may not change how much work a request does:

- ``auto-small`` relabels the suite graphs, Petersen and the dtc case with
  seeded permutations.  The oracle enumerates the same trees under any
  labelling.
- ``dp-exact`` and ``approx`` keep their graphs and labels fixed and only
  shuffle the order of edge lines.  The DP's cost depends on the labels
  through the decomposition's tie-breaks: relabelling the 4x4 grid moved one
  exact solve between 4.7 s and 7.9 s, and drawing a fresh random suite moved
  40 DP solves between 5.1 s and 10.0 s.
- ``sparse-large`` draws the pendant trees, the relabelling and two of its
  five cores from the seed, at fixed vertex and edge counts.

Reference values and the arguments that fix them:

- ``n x n`` grid: stc = n.  ``gen_ubp``: stc = the bundle's ``k``.
- Graphs with n <= 10: the checker's brute force.
- A graph with a universal vertex h (the ``dtc`` and ``vi`` cases):
  stc = max over u != h of deg(u).  The star at h meets this, since a leaf's
  edge carries the leaf's degree.  Conversely, root any spanning tree at h
  and take the edge above u: its side X holds u but not h, so its cut has
  the |X| edges from X to h plus at least deg(u) - |X| edges from u to
  vertices outside X other than h, deg(u) in all.
- ``sparse-large``: stc = stc(core).  Subdividing an edge leaves stc
  unchanged, and a pendant tree adds only bridges, which lie in every
  spanning tree, carry congestion 1 and cross no other tree edge's cut.
"""
from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

SUITE_SEED = 101  # the acceptance suite's seed: the suite graphs' structures
WORKLOADS = ("auto-small", "dp-exact", "approx", "sparse-large")
DP_SUITE = 19  # suite graphs 0..18; graphs 19 and 24 take about 1.7 s each
APPROX_SUITE = 7  # suite graphs 0..6 at eps 0.1; graph 19 alone takes 5 s
SPARSE_TARGETS = (5000, 8000, 11000, 14000, 20000)  # vertices per sparse graph


@dataclass
class Instance:
    """One input graph plus what the checker needs to judge answers on it."""

    name: str
    n: int
    edges: list[tuple[int, int]]
    ref: int | None = None  # known stc, or None for "brute-force `core`"
    core: tuple[int, list[tuple[int, int]]] | None = None
    modulator: list[int] | None = None
    path: str = ""
    mod_path: str = ""


@dataclass
class Request:
    """One CLI call.  ``kind`` is solve, approx or eval; ``inst`` the graph."""

    name: str
    kind: str
    inst: Instance
    argv: list[str]
    eps: str | None = None
    sol_path: str = ""


def norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


# -- graph families -----------------------------------------------------------


def random_connected(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Random tree plus m - (n-1) extra edges, as the acceptance suite draws."""
    m = max(n - 1, min(m, n * (n - 1) // 2))
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add(norm(u, v))
    pool = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    rng.shuffle(pool)
    for e in pool[: m - len(edges)]:
        edges.add(e)
    return sorted(edges)


def suite(count: int = 200) -> list[tuple[int, list[tuple[int, int]]]]:
    """The acceptance suite: connected, n in 4..9, m <= 14, seed 101."""
    rng = random.Random(SUITE_SEED)
    out = []
    for _ in range(count):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(14, n * (n - 1) // 2))
        out.append((n, random_connected(rng, n, m)))
    return out


def petersen() -> tuple[int, list[tuple[int, int]]]:
    outer = [norm(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [norm(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, sorted(outer + spokes + inner)


def complete(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def fes(n: int, edges) -> int:
    return len(edges) - n + 1


def relabel(rng: random.Random, n: int, edges):
    """Seeded vertex permutation; returns (edges, map) with map[old] = new."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(norm(perm[u], perm[v]) for u, v in edges), perm


def dtc_case(rng: random.Random) -> Instance:
    """K14 plus a modulator vertex s joined to a seeded set A, |A| >= 2.

    Every vertex of A is universal, a second one has degree 14 and s has
    degree |A| <= 14, so stc = 14 by the universal-vertex argument.
    """
    s = 14
    attach = rng.sample(range(14), rng.randint(2, 14))
    edges = complete(14) + [norm(a, s) for a in attach]
    edges, perm = relabel(rng, 15, edges)
    return Instance("dtc-k14", 15, edges, ref=14, modulator=[perm[s]])


def vi_case() -> Instance:
    """Modulator {h, s}: h universal, five triangles, s meets one vertex of each.

    G - {h, s} is five 3-vertex components, deg(s) = 6 with h, and every
    triangle vertex has degree at most 4, so stc = 6 by the universal-vertex
    argument.
    """
    h, s = 0, 1
    edges = [(h, s)]
    for t in range(5):
        a, b, c = 2 + 3 * t, 3 + 3 * t, 4 + 3 * t
        edges += [(a, b), (a, c), (b, c), (h, a), (h, b), (h, c), (s, a)]
    return Instance("vi-17", 17, sorted(edges), ref=6, modulator=[h, s])


def sparse_large(rng, name: str, core_n: int, core_edges, target: int) -> Instance:
    """Subdivide every core edge L times, then hang seeded pendant trees.

    L is chosen so the subdivided core holds about half of ``target``
    vertices; pendant vertices fill the rest, each joined to a uniformly
    drawn earlier vertex.  The vertex count is exactly ``target``.
    """
    m = len(core_edges)
    L = max(1, (target // 2 - core_n) // m)
    edges = []
    n = core_n
    for u, v in core_edges:
        prev = u
        for _ in range(L):
            edges.append(norm(prev, n))
            prev = n
            n += 1
        edges.append(norm(prev, v))
    while n < target:
        edges.append(norm(rng.randrange(n), n))
        n += 1
    edges, _ = relabel(rng, n, edges)
    return Instance(name, n, edges, core=(core_n, list(core_edges)))


# -- files --------------------------------------------------------------------


def gr_text(rng: random.Random, n: int, edges) -> str:
    """`.gr` text with edge lines in seeded order."""
    lines = [f"{u + 1} {v + 1}" for u, v in edges]
    rng.shuffle(lines)
    return f"p stc {n} {len(edges)}\n" + "\n".join(lines) + "\n"


def write_instances(rng: random.Random, instances: list[Instance], workdir: str) -> None:
    for i, inst in enumerate(instances):
        inst.path = os.path.join(workdir, f"{i:03d}-{inst.name}.gr")
        with open(inst.path, "w", encoding="utf-8") as fh:
            fh.write(gr_text(rng, inst.n, inst.edges))
        if inst.modulator is not None:
            inst.mod_path = inst.path[:-3] + ".mod"
            with open(inst.mod_path, "w", encoding="utf-8") as fh:
                fh.write(" ".join(str(v + 1) for v in inst.modulator) + "\n")


# -- workloads ----------------------------------------------------------------


def _stc_graph(g) -> tuple[int, list[tuple[int, int]]]:
    return g.n, sorted(g.edges)


def build(workload: str, seed: int, workdir: str, gen_timer) -> list[Request]:
    """Generate the workload's instances, write them, list its requests.

    ``gen_timer(fn, *args)`` calls one of stc's generators and books its
    time to the ``reductions`` layer.
    """
    from stc.reductions import gen_grid, gen_ubp

    rng = random.Random(seed)
    instances: list[Instance] = []
    requests: list[Request] = []

    def solve(inst, *flags):
        if inst.modulator is not None:
            flags += ("--modulator", inst.mod_path)
        return Request(inst.name, "solve", inst, ["solve", inst.path, *flags, "--json"])

    if workload == "auto-small":
        for i, (n, edges) in enumerate(suite()):
            instances.append(Instance(f"suite{i}", n, relabel(rng, n, edges)[0]))
        instances.append(Instance("grid3", *_stc_graph(gen_timer(gen_grid, 3)), ref=3))
        pn, pe = petersen()
        instances.append(Instance("petersen", pn, relabel(rng, pn, pe)[0]))
        instances.append(dtc_case(rng))
        write_instances(rng, instances, workdir)
        requests = [solve(inst) for inst in instances]
    elif workload == "dp-exact":
        instances.append(Instance("grid4", *_stc_graph(gen_timer(gen_grid, 4)), ref=4))
        ubp = gen_timer(gen_ubp, 3, [1, 1, 1])
        instances.append(Instance("ubp3", *_stc_graph(ubp.graph), ref=ubp.k))
        instances.append(vi_case())
        for i, (n, edges) in enumerate(suite()[:DP_SUITE]):
            instances.append(Instance(f"suite{i}", n, edges))
        write_instances(rng, instances, workdir)
        requests = [solve(inst, "--alg", "dp") if inst.modulator is None else solve(inst)
                    for inst in instances]
    elif workload == "approx":
        ubp = gen_timer(gen_ubp, 3, [1, 1, 1])
        ubp_inst = Instance("ubp3", *_stc_graph(ubp.graph), ref=ubp.k)
        instances.append(ubp_inst)
        for i, (n, edges) in enumerate(suite()[:APPROX_SUITE]):
            instances.append(Instance(f"suite{i}", n, edges))
        write_instances(rng, instances, workdir)
        plan = [(ubp_inst, "0.5"), (ubp_inst, "1")] + [(x, "0.1") for x in instances[1:]]
        for inst, eps in plan:
            requests.append(Request(f"{inst.name}@{eps}", "approx", inst,
                                    ["approx", inst.path, "--eps", eps, "--json"], eps=eps))
    elif workload == "sparse-large":
        pool = [g for g in suite() if 3 <= fes(*g) <= 5]
        picks = rng.sample(pool, 2)
        g3 = gen_timer(gen_grid, 3)
        cores = [("grid3", _stc_graph(g3), 3), ("petersen", petersen(), None),
                 ("k4", (4, complete(4)), 3), ("suiteA", picks[0], None),
                 ("suiteB", picks[1], None)]
        for (name, (cn, ce), ref), target in zip(cores, SPARSE_TARGETS):
            inst = sparse_large(rng, f"sparse-{name}", cn, ce, target)
            inst.ref = ref
            instances.append(inst)
        write_instances(rng, instances, workdir)
        for inst in instances:
            sol = inst.path[:-3] + ".sol.json"
            requests.append(Request(inst.name, "solve", inst,
                                    ["solve", inst.path, "-o", sol, "--json"], sol_path=sol))
            requests.append(Request(inst.name + ":eval", "eval", inst,
                                    ["eval", inst.path, "--tree", sol, "--json"], sol_path=sol))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return requests
