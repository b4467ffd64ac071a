"""Hardness-instance generators and weighted-to-unweighted gadget expansions.

Three constructions drive the lower-bound side of the library: a unary bin
packing family whose items are stars or cliques hung below bin vertices, a
3-partition family stabilized by a large clique, and a bounded-occurrence
3-SAT family whose variable gadgets are 4-cycles strung along a path.  Each
generator returns an InstanceBundle carrying the target congestion k, named
vertex groups, and the expansion bookkeeping (middle vertices, grid gadget
copies) that maps a tree of the weighted graph onto the final unweighted
one; the tests' witness builder lifts its certificate trees through it.

Weighted edges disappear in two ways.  An edge with wt1 == wt2 == w is kept
and doubled up with w - 1 parallel length-2 paths, which preserves stc
exactly.  An edge with wt1 < wt2 < k is removed and replaced by wt1 disjoint
g x g grids (g = wt2 - wt1 + 1) strung between its endpoints, which
preserves the decision "stc <= k": the grids force g units of congestion on
any path used to reconnect the endpoints, and wt1 attachment edges per side
replay the detour multiplicity.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphError
from .graph import (
    DoubleWeightedGraph,
    Edge,
    Graph,
    edge_key,
)


@dataclass(frozen=True)
class InstanceBundle:
    """A generated instance: final graph, target k, and layout annotations.

    graph is always the unweighted graph the solvers consume; weighted holds
    the pre-expansion graph when the construction has one.  annotations maps
    group names (bins, cliques, variable vertices, gadget grids, ...) to the
    vertex ids the generator assigned, in construction order.
    """

    graph: Graph
    k: int
    provenance: dict
    weighted: DoubleWeightedGraph | None = None
    annotations: dict = field(default_factory=dict)


def _grid_edges(g: int, base: int) -> list[Edge]:
    """Edges of a g x g grid on ids base .. base + g*g - 1, row-major."""
    out = []
    for r in range(g):
        for c in range(g):
            v = base + r * g + c
            if c + 1 < g:
                out.append(edge_key(v, v + 1))
            if r + 1 < g:
                out.append(edge_key(v, v + g))
    return out


def gen_grid(n: int) -> Graph:
    """The n x n grid graph, vertices numbered row-major from 0."""
    if n < 2:
        raise GraphError("grid generator needs n >= 2")
    return Graph.from_edges(n * n, _grid_edges(n, 0))


def grid_corners(n: int) -> tuple[int, int, int, int]:
    """Corner ids of gen_grid(n) in row-major order."""
    return (0, n - 1, n * n - n, n * n - 1)


def expand_single_weighted(Gw: DoubleWeightedGraph) -> tuple[Graph, dict]:
    """Replace every weight-w edge by the edge itself plus w - 1 length-2 paths.

    Requires wt1 == wt2 everywhere.  Keeping the original edge makes witness
    lifting canonical: weighted tree edges stay tree edges and each new
    middle vertex hangs off a fixed endpoint.  Returns the unweighted graph
    and {"middles": {edge: [new middle ids]}}.
    """
    if not Gw.is_single_weighted():
        raise GraphError("single-weighted expansion needs wt1 == wt2 on every edge")
    edges: list[Edge] = []
    middles: dict[Edge, list[int]] = {}
    nxt = Gw.base.n
    for e in sorted(Gw.base.edges):
        u, v = e
        edges.append(e)
        mids = []
        for _ in range(Gw.wt1[e] - 1):
            edges.append(edge_key(u, nxt))
            edges.append(edge_key(v, nxt))
            mids.append(nxt)
            nxt += 1
        if mids:
            middles[e] = mids
    return Graph.from_edges(nxt, edges), {"middles": middles}


def expand_double_weighted(Gw: DoubleWeightedGraph, k: int) -> tuple[Graph, dict]:
    """Gadget-expand a double-weighted graph for the threshold decision at k.

    Each edge e = {u, v} with wt1(e) < wt2(e) < k is removed and replaced by
    wt1(e) copies of the g x g grid, g = wt2(e) - wt1(e) + 1, one corner
    adjacent to u and the opposite corner adjacent to v.  Edges weighted
    (1, 1) are kept; any other weight pair is rejected.  The expansion
    preserves the decision stc <= k, raises deg(u) and deg(v) by exactly
    wt1(e) - 1, and adds only vertices of degree at most 4.
    """
    edges: list[Edge] = []
    gadgets: dict[Edge, dict] = {}
    nxt = Gw.base.n
    for e in sorted(Gw.base.edges):
        a, b = Gw.wt1[e], Gw.wt2[e]
        if (a, b) == (1, 1):
            edges.append(e)
            continue
        if not a < b < k:
            raise GraphError(
                f"edge {e} weighted ({a}, {b}): gadget expansion needs wt1 < wt2 < k"
            )
        g = b - a + 1
        u, v = e
        copies = []
        for _ in range(a):
            edges.extend(_grid_edges(g, nxt))
            edges.append(edge_key(u, nxt))
            edges.append(edge_key(v, nxt + g * g - 1))
            copies.append(nxt)
            nxt += g * g
        gadgets[e] = {"g": g, "copies": copies}
    return Graph.from_edges(nxt, edges), {"gadgets": gadgets}


def gen_ubp(t: int, a, family: str = "stars") -> InstanceBundle:
    """Unary bin packing instance: t bins, item i a star or clique on a[i] vertices.

    Every item vertex is joined to all t bin vertices v_1 .. v_t, and a root
    r is joined to each v_j with weight 3(t-1)B, where B = sum(a)/t is the
    bin capacity.  Target k = 5(t-1)B: an exact packing loads every (r, v_j)
    to k, while any misplaced item overloads some bin edge by (t-2)a_i.
    """
    a = list(a)
    if t < 3:
        raise GraphError("bin packing construction needs t >= 3")
    if not a or any(x < 1 for x in a):
        raise GraphError("item sizes must be positive")
    if family not in ("stars", "cliques"):
        raise GraphError(f"unknown item family {family!r}")
    total = sum(a)
    if total % t:
        raise GraphError(f"item total {total} is not divisible by t = {t}")
    B = total // t
    k = 5 * (t - 1) * B

    edges: list[Edge] = []
    blocks: list[list[int]] = []
    nxt = 0
    for size in a:
        block = list(range(nxt, nxt + size))
        nxt += size
        blocks.append(block)
        if family == "stars":
            edges.extend(edge_key(block[0], u) for u in block[1:])
        else:
            edges.extend(
                edge_key(block[i], block[j])
                for i in range(size)
                for j in range(i + 1, size)
            )
    Q = list(range(nxt, nxt + t))
    r = nxt + t
    edges.extend(edge_key(u, q) for block in blocks for u in block for q in Q)
    edges.extend(edge_key(q, r) for q in Q)

    base = Graph.from_edges(r + 1, edges)
    hub = 3 * (t - 1) * B
    wt = {e: hub if r in e else 1 for e in base.edges}
    weighted = DoubleWeightedGraph.single(base, wt)
    expanded, emap = expand_single_weighted(weighted)
    return InstanceBundle(
        graph=expanded,
        k=k,
        provenance={"construction": "ubp", "t": t, "B": B, "a": a, "family": family},
        weighted=weighted,
        annotations={
            "r": r,
            "Q": Q,
            "blocks": blocks,
            "family": family,
            "middles": emap["middles"],
        },
    )


def gen_3partition(a, B: int) -> InstanceBundle:
    """3-partition instance: 3n item cliques, n hub vertices, a balancing clique.

    Item cliques join completely to the hubs Q, the hubs join completely to
    a clique C of M = 4(n-1)B vertices, and an apex w joins C.  Target
    k = M + 2(n-1)B = 3M/2.  The size window B/4 < a_i < B/2 forces every
    hub to carry exactly three items in a witness packing.
    """
    a = list(a)
    if len(a) % 3:
        raise GraphError("3-partition needs a multiple of 3 items")
    n = len(a) // 3
    if n < 3:
        raise GraphError("3-partition construction needs n >= 3 groups")
    if sum(a) != n * B:
        raise GraphError(f"item total {sum(a)} must equal n*B = {n * B}")
    for x in a:
        if not (4 * x > B and 2 * x < B):
            raise GraphError(f"item size {x} outside the open window (B/4, B/2)")
    M = 4 * (n - 1) * B
    k = M + 2 * (n - 1) * B

    edges: list[Edge] = []
    blocks: list[list[int]] = []
    nxt = 0
    for size in a:
        block = list(range(nxt, nxt + size))
        nxt += size
        blocks.append(block)
        edges.extend(
            edge_key(block[i], block[j])
            for i in range(size)
            for j in range(i + 1, size)
        )
    Q = list(range(nxt, nxt + n))
    C = list(range(nxt + n, nxt + n + M))
    w = nxt + n + M
    edges.extend(edge_key(u, q) for block in blocks for u in block for q in Q)
    edges.extend(edge_key(C[i], C[j]) for i in range(M) for j in range(i + 1, M))
    edges.extend(edge_key(q, c) for q in Q for c in C)
    edges.extend(edge_key(c, w) for c in C)

    graph = Graph.from_edges(w + 1, edges)
    items = [u for block in blocks for u in block]
    return InstanceBundle(
        graph=graph,
        k=k,
        provenance={"construction": "3part", "n": n, "B": B, "a": a, "M": M},
        annotations={
            "w": w,
            "C": C,
            "Q": Q,
            "blocks": blocks,
            "modules": [[w], C, Q, items],
        },
    )


def _check_bsat(clauses) -> int:
    """Validate the (3,B2) shape: 3 distinct variables per clause, each
    variable exactly twice positive and twice negative.  Returns n."""
    if len(clauses) < 3:
        raise GraphError("need at least 3 clauses")
    pos: dict[int, int] = {}
    neg: dict[int, int] = {}
    for j, clause in enumerate(clauses):
        lits = list(clause)
        if len(lits) != 3 or any(not isinstance(l, int) or l == 0 for l in lits):
            raise GraphError(f"clause {j} is not three nonzero literals")
        if len({abs(l) for l in lits}) != 3:
            raise GraphError(f"clause {j} repeats a variable")
        for l in lits:
            (pos if l > 0 else neg)[abs(l)] = (pos if l > 0 else neg).get(abs(l), 0) + 1
    n = max(max(pos, default=0), max(neg, default=0))
    for i in range(1, n + 1):
        if pos.get(i, 0) != 2 or neg.get(i, 0) != 2:
            raise GraphError(
                f"variable {i} occurs {pos.get(i, 0)}+/{neg.get(i, 0)}-, needs 2+/2-"
            )
    return n


def gen_bsat(clauses) -> InstanceBundle:
    """Bounded-occurrence 3-SAT instance with one 4-cycle gadget per variable.

    Clauses are DIMACS-style triples of nonzero ints; every variable must
    occur exactly twice positively and twice negatively.  Variable i yields
    the cycle x_i, y_i, xbar_i, z_i with the two y edges weighted (4, k-3)
    and the two z edges (1, 1); consecutive z_i form a path weighted (3, 3);
    clause vertex c_j joins its literal vertices with weight (1, k-2).
    Target k = 2m+3.  The expansion keeps every (1, 1) edge, splits (3, 3)
    edges into three parallel routes, and grid-gadgets the rest; the result
    has max degree 8, met by the y_i.
    """
    clauses = [list(c) for c in clauses]
    n = _check_bsat(clauses)
    m = len(clauses)
    k = 2 * m + 3

    def x(i):
        return 4 * (i - 1)

    def y(i):
        return 4 * (i - 1) + 1

    def xbar(i):
        return 4 * (i - 1) + 2

    def z(i):
        return 4 * (i - 1) + 3

    def lit_vertex(l):
        return x(abs(l)) if l > 0 else xbar(abs(l))

    cvert = [4 * n + j for j in range(m)]
    wt: dict[Edge, tuple[int, int]] = {}
    for i in range(1, n + 1):
        wt[edge_key(x(i), y(i))] = (4, k - 3)
        wt[edge_key(y(i), xbar(i))] = (4, k - 3)
        wt[edge_key(x(i), z(i))] = (1, 1)
        wt[edge_key(xbar(i), z(i))] = (1, 1)
        if i < n:
            wt[edge_key(z(i), z(i + 1))] = (3, 3)
    for j, clause in enumerate(clauses):
        for l in clause:
            e = edge_key(cvert[j], lit_vertex(l))
            if e in wt:
                raise GraphError(f"clause {j} repeats a literal edge {e}")
            wt[e] = (1, k - 2)

    base = Graph.from_edges(4 * n + m, list(wt))
    weighted = DoubleWeightedGraph(
        base, {e: p[0] for e, p in wt.items()}, {e: p[1] for e, p in wt.items()}
    )

    # stage 1: split each (3, 3) edge into the kept edge plus two unit paths
    inter_wt: dict[Edge, tuple[int, int]] = {}
    middles: dict[Edge, list[int]] = {}
    nxt = base.n
    inter_edges: list[Edge] = []
    for e in sorted(base.edges):
        pair = wt[e]
        if pair == (3, 3):
            u, v = e
            inter_edges.append(e)
            inter_wt[e] = (1, 1)
            mids = []
            for _ in range(2):
                for f in (edge_key(u, nxt), edge_key(v, nxt)):
                    inter_edges.append(f)
                    inter_wt[f] = (1, 1)
                mids.append(nxt)
                nxt += 1
            middles[e] = mids
        else:
            inter_edges.append(e)
            inter_wt[e] = pair
    inter = DoubleWeightedGraph(
        Graph.from_edges(nxt, inter_edges),
        {e: p[0] for e, p in inter_wt.items()},
        {e: p[1] for e, p in inter_wt.items()},
    )

    # stage 2: grid gadgets for the (4, k-3) and (1, k-2) edges
    expanded, emap = expand_double_weighted(inter, k)
    return InstanceBundle(
        graph=expanded,
        k=k,
        provenance={"construction": "bsat", "clauses": clauses, "n": n, "m": m},
        weighted=weighted,
        annotations={
            "x": [x(i) for i in range(1, n + 1)],
            "y": [y(i) for i in range(1, n + 1)],
            "xbar": [xbar(i) for i in range(1, n + 1)],
            "z": [z(i) for i in range(1, n + 1)],
            "clauses": cvert,
            "middles": middles,
            "gadgets": emap["gadgets"],
        },
    )
