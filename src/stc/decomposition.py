"""Tree decompositions: one construction, and the nice form.

`decompose` eliminates vertices in min-fill order (min-degree, then id,
breaking ties) and records each vertex's bag as it goes.  Its width need not
be optimal: the DP of `stc.dp` decides stc <= k on a decomposition of any
width w, in (k + w)^O(w) time, and `stc.dp.search_k` decides a graph of at
most `ORACLE_CAP` vertices by the vertex-subset step, with no decomposition.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidDecompositionError
from .graph import Graph, _bfs_walk, require_connected


@dataclass(frozen=True)
class TreeDecomposition:
    n: int  # vertex count of the decomposed graph
    bags: tuple[frozenset[int], ...]
    tree: frozenset[tuple[int, int]]  # edges between bag indices

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1


@dataclass(frozen=True)
class NiceNode:
    kind: str  # leaf | introduce | forget | join
    bag: frozenset[int]
    vertex: int | None
    children: tuple[int, ...]


@dataclass(frozen=True)
class NiceTreeDecomposition:
    n: int
    nodes: tuple[NiceNode, ...]
    root: int

    @property
    def width(self) -> int:
        return max(len(nd.bag) for nd in self.nodes) - 1

    @property
    def height(self) -> int:
        """Longest leaf-to-root path, a join of c children counting as c - 1
        levels: the DP merges its c tables pairwise, rounding c - 1 times,
        so the rounding budget of RoundedArith (delta = eps/2h) covers it."""
        depth = {self.root: 0}
        stack = [self.root]
        best = 0
        while stack:
            i = stack.pop()
            nd = self.nodes[i]
            step = len(nd.children) - 1 if nd.kind == "join" else 1
            for c in nd.children:
                depth[c] = depth[i] + step
                best = max(best, depth[c])
                stack.append(c)
        return best

    def postorder(self) -> list[int]:
        out: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            i, done = stack.pop()
            if done:
                out.append(i)
            else:
                stack.append((i, True))
                for c in self.nodes[i].children:
                    stack.append((c, False))
        return out


def decompose(G: Graph) -> TreeDecomposition:
    """Tree decomposition by min-fill elimination.

    Each step eliminates the live vertex with the smallest (fill, degree,
    id) and makes its live neighbours a clique.  Its bag is the vertex plus
    those neighbours, and hangs from the bag of the first of them to be
    eliminated.  G is connected and each step keeps the live graph
    connected, so every bag but the last has a live neighbour.
    """
    require_connected(G)
    adj = [set(G.neighbors(v)) for v in range(G.n)]
    alive = set(range(G.n))
    pos = [0] * G.n  # the step that eliminates each vertex
    bags: list[frozenset[int]] = []
    later: list[set[int]] = []  # the live neighbours at each step
    while alive:
        best = None
        for v in sorted(alive):
            nb = adj[v] & alive
            fill = sum(
                1
                for a in nb
                for b in nb
                if a < b and b not in adj[a]
            )
            key = (fill, len(nb), v)
            if best is None or key < best[0]:
                best = (key, v)
        v = best[1]
        nb = adj[v] & alive
        for a in nb:
            for b in nb:
                if a < b:
                    adj[a].add(b)
                    adj[b].add(a)
        alive.remove(v)
        pos[v] = len(bags)
        bags.append(frozenset({v} | nb))
        later.append(nb)
    edges = frozenset((i, min(pos[u] for u in nb)) for i, nb in enumerate(later) if nb)
    return TreeDecomposition(G.n, tuple(bags), edges)


def _bag_tree_adj(td: TreeDecomposition) -> list[list[int]]:
    """The sorted adjacency lists of td's bag tree."""
    adj: list[list[int]] = [[] for _ in td.bags]
    for i, j in td.tree:
        adj[i].append(j)
        adj[j].append(i)
    for nb in adj:
        nb.sort()
    return adj


def validate_td(G: Graph, td: TreeDecomposition) -> str | None:
    """None if td satisfies the three axioms, else a violation description."""
    b = len(td.bags)
    if td.n != G.n:
        return f"decomposition is for n={td.n}, graph has n={G.n}"
    for i, j in td.tree:
        if not (0 <= i < b and 0 <= j < b and i != j):
            return f"tree edge ({i},{j}) out of range"
    if len(td.tree) != b - 1:
        return f"{len(td.tree)} tree edges for {b} bags, not a tree"
    if len(_bfs_walk(_bag_tree_adj(td), 0)[2]) != b:
        return "bag tree is disconnected"
    covered = set().union(*td.bags) if td.bags else set()
    if covered != set(range(G.n)):
        return "vertex-coverage violation"
    holding: list[set[int]] = [set() for _ in range(G.n)]  # the bags of each vertex
    for i, bag in enumerate(td.bags):
        for v in bag:
            holding[v].add(i)
    for u, v in G.edges:
        if holding[u].isdisjoint(holding[v]):
            return f"edge-coverage violation for ({u},{v})"
    # the bags of v induce a forest in the tree, connected iff it has
    # len(holding[v]) - 1 edges
    inner = [0] * G.n
    for i, j in td.tree:
        for v in td.bags[i] & td.bags[j]:
            inner[v] += 1
    for v in range(G.n):
        if inner[v] != len(holding[v]) - 1:
            return f"connectivity violation for vertex {v}"
    return None


def validate_nice(G: Graph, ntd: NiceTreeDecomposition) -> str | None:
    """Axioms plus the structural rules: a leaf has the empty bag, introduce
    and forget add or drop one vertex, and a join has two or more children,
    each with the join's bag."""
    nodes = ntd.nodes
    reachable = set()
    stack = [ntd.root]
    while stack:
        i = stack.pop()
        if i in reachable:
            return "node reached twice, not a tree"
        reachable.add(i)
        stack.extend(nodes[i].children)
    if reachable != set(range(len(nodes))):
        return "unreachable nodes"
    if nodes[ntd.root].bag:
        return "root bag not empty"
    for i, nd in enumerate(nodes):
        kids = nd.children
        if nd.kind == "leaf":
            if kids or nd.bag:
                return f"leaf node {i} malformed"
        elif nd.kind == "introduce":
            if len(kids) != 1 or nd.vertex is None:
                return f"introduce node {i} malformed"
            if nd.bag != nodes[kids[0]].bag | {nd.vertex} or nd.vertex in nodes[kids[0]].bag:
                return f"introduce node {i} bag rule violated"
        elif nd.kind == "forget":
            if len(kids) != 1 or nd.vertex is None:
                return f"forget node {i} malformed"
            if nodes[kids[0]].bag != nd.bag | {nd.vertex} or nd.vertex in nd.bag:
                return f"forget node {i} bag rule violated"
        elif nd.kind == "join":
            if len(kids) < 2:
                return f"join node {i} needs two or more children"
            if any(nodes[c].bag != nd.bag for c in kids):
                return f"join node {i} children bags differ"
        else:
            return f"unknown node kind {nd.kind!r}"
    # reuse the plain validator on the underlying decomposition
    edges = set()
    for i, nd in enumerate(nodes):
        for c in nd.children:
            edges.add(tuple(sorted((i, c))))
    td = TreeDecomposition(ntd.n, tuple(nd.bag for nd in nodes), frozenset(edges))
    return validate_td(G, td)


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Root the decomposition and expand it into nice form.

    Leaf and root bags are empty; introduces/forgets step one vertex at a
    time.  A bag with c >= 2 children becomes one join node whose children
    are the tops of chains that bring each child's bag to the join's bag.
    Children are grouped by the separator I = child bag & bag they share
    with it: a group of two or more with I a proper subset of bag chains
    each member down to I (forgets only), joins them there, and introduces
    each vertex of bag - I once above that inner join, not once in each
    member's chain.  This keeps the axioms: a vertex v of bag - I is in no
    member's bag, so by the connectivity axiom in no bag below a member
    either; no node below the inner join holds v, and introducing it once
    above that join keeps its nodes connected.  A group with I = bag, or a
    lone child, goes into the join as one chain per child.
    """
    nodes: list[NiceNode] = []

    def add(kind, bag, vertex=None, children=()) -> int:
        nodes.append(NiceNode(kind, frozenset(bag), vertex, tuple(children)))
        return len(nodes) - 1

    def chain_up(top: int, frm: frozenset[int], to: frozenset[int]) -> int:
        cur = set(frm)
        for v in sorted(frm - to):
            cur.remove(v)
            top = add("forget", cur, v, (top,))
        for v in sorted(to - frm):
            cur.add(v)
            top = add("introduce", cur, v, (top,))
        return top

    def build_from_empty(bag: frozenset[int]) -> int:
        top = add("leaf", frozenset())
        return chain_up(top, frozenset(), bag)

    root_bag = 0
    adj = _bag_tree_adj(td)
    parent, _, order = _bfs_walk(adj, root_bag)
    built: dict[int, int] = {}
    for x in reversed(order):
        bag = td.bags[x]
        kids = [y for y in adj[x] if parent[y] == x]
        if not kids:
            built[x] = build_from_empty(bag)
            continue
        groups: dict[frozenset[int], list[int]] = {}
        for y in kids:
            groups.setdefault(td.bags[y] & bag, []).append(y)
        tops = []
        for sep, ys in groups.items():
            if len(ys) == 1 or sep == bag:
                tops += [chain_up(built[y], td.bags[y], bag) for y in ys]
            else:
                inner = add("join", sep, None, [chain_up(built[y], td.bags[y], sep) for y in ys])
                tops.append(chain_up(inner, sep, bag))
        built[x] = add("join", bag, None, tops) if len(tops) > 1 else tops[0]

    root = chain_up(built[root_bag], td.bags[root_bag], frozenset())
    if nodes[root].bag:
        raise InvalidDecompositionError("root did not reduce to the empty bag")
    return NiceTreeDecomposition(td.n, tuple(nodes), root)
