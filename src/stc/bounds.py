"""Bounds on spanning tree congestion, computed before any DP run or enumeration.

Lower bound.  Let u != v be vertices and T a spanning tree.  The tree path
from u to v has an edge e, and T - e splits the vertices into two sides
with u on one and v on the other.  Every graph edge that crosses that cut
has its detour through e (e itself included), so e carries the size of the
cut, which is at least lambda(u, v), the size of a minimum u-v edge cut.
So stc(G) >= max over u != v of lambda(u, v), and any one pair gives a
sound bound.  The minimum degree delta is a bound too: every tree has a
leaf, and the leaf's edge carries the leaf's degree.

The bound subsumes the biclique branch of the paper's Win/Win, which
refutes stc <= k (k >= 1) on a graph that holds a K_{k+1,k+1}.  Take two
vertices a and a' on one side of it: the k+1 paths a-b-a', one through
each b on the other side, are edge-disjoint, so lambda(a, a') >= k+1 > k.
So `lower_bound(G, k + 1) > k` refutes every such graph in polynomial time,
and `stc.solve` with alg="dp" and a given k runs the DP only where it does
not; the DP's side of the Win/Win needs no width test either, since the DP
decides at any width.

`lower_bound` starts at delta and takes the maximum with Gusfield's
flow-equivalent tree (Gomory and Hu, 1961; Gusfield, SIAM J. Comput. 1990):
for each vertex s after the first, one maximum flow from s to its current
tree parent t, and every later vertex with parent t on s's side of the cut
moves under s.  The maximum over all pairs is the largest of these flows.
Since lambda(u, v) <= min(deg u, deg v), only vertices of degree above
delta are visited, in descending order of degree, so a parent never has a
lower degree than its child; once deg s is at most the bound so far, no
later flow can raise it, and the scan stops.  It also stops once the bound
reaches a known upper bound.  Flows use unit capacities and BFS augmenting
paths.  (Rooting the tree at vertex 0 and skipping pairs by degree would
not do: on the 4x4 grid that skips every pair through the degree-2 corner
and returns 2 instead of 4.)

Upper bound.  Every spanning tree's congestion is one.  `bounds` takes the
least congested BFS tree over all roots, stopping at the first one that
meets the lower bound.  Each root's BFS runs straight into its walk
(parents, depths, visit order), and the one evaluator measures the walk,
naming the tree edges by their parents; no tree is built for a root.  Only
the winner becomes a SpanningTree, validated and re-measured in full, so
one scan validates one tree; root 0's value also stops the lower bound's
scan.  The winner is improved by single edge swaps: add a non-tree edge f
and drop an edge of the cycle it closes, which leaves a spanning tree.  The
non-tree edges are scanned in cyclic order of the sorted edge list, and
the scan goes on from where it is after a swap.  For each f the cycle's
edges are tried in descending order of congestion, and the first
candidate whose congestion profile (all tree-edge congestions, sorted in
descending order) is lexicographically smaller replaces the tree.  The
search stops after a full lap with no swap, once the maximum meets the
lower bound, or after 2m measured candidate trees.  A candidate is measured
on the cycle alone (see `_swap_search`); after a swap the tree returned is
a validated SpanningTree, re-measured in full.

Small graphs.  On a graph of at most ORACLE_CAP vertices whose bounds
still differ, `_subset_tree` closes the gap by a recursion over vertex
subsets (cf. Okamoto, Otachi, Uehara and Uno, JGAA 2011).  It takes a
vertex list U with root r = U[0] and measures every cut in the whole of G.
Write hang(Y, c) for "G[Y] has a spanning tree rooted at c in which the
subtree below each edge has |delta_G| <= k", and split(R, c) for "R splits
into blocks Z, each with |delta_G(Z)| <= k and a G-neighbour z of c in Z
with hang(Z, z)".  Then hang(Y, c) = split(Y - c, c): such a tree gives
the blocks below each vertex, and conversely the edges cz of the chosen
blocks form a spanning tree of G[Y] in which the subtree below cz is
exactly Z.  split takes the block that holds the lowest vertex of R and
recurses on the rest, which lists every partition of R exactly once.  Each
state (R, c) is decided once per k, over the subsets of R: at most
|U| * 3^|U| steps per k, so the step needs no budget.

`bounds` asks hang(V, 0): removing a tree edge cz splits V into Z and
V - Z, so cz carries |delta_G(Z)|, and stc(G) <= k iff hang(V, 0).  The
first k from the lower bound up that holds is stc; its tree is
re-measured.  When none below the upper bound holds, the upper bound's
tree is optimal.

`solve_dtc` (stc.structural.dtc) asks hang(U, r) for U = r plus the <= 2q
vertices it arranges; every other clique vertex is a leaf of r, whose edge
carries deg(leaf).  The set below an arrangement edge is exactly its
subtree D, since the leaves hang from r, so that edge carries
|delta_G(D)|.  So the first k from the largest leaf degree up that holds is
the least congestion of a tree of this shape.
"""
from __future__ import annotations

from .graph import (
    Edge,
    Graph,
    SpanningTree,
    _bfs_walk,
    _max_load,
    _tree_order,
    congestion_report,
    edge_key,
)

# graphs this small get exact bounds from the vertex-subset step (module
# docstring); the routers name their answers "fes" up to it and "dp" above
ORACLE_CAP = 12


def _min_cut(G: Graph, s: int, t: int) -> tuple[int, dict[int, int | None]]:
    """lambda(s, t), and the vertices on s's side of a minimum s-t cut (the
    keys of the returned dict): unit capacities, BFS augmenting paths."""
    flow: dict[tuple[int, int], int] = {}  # net flow on the arc (u, v)
    value = 0
    while True:
        prev: dict[int, int | None] = {s: None}
        queue = [s]
        for u in queue:
            for v in G.neighbors(u):
                if v not in prev and flow.get((u, v), 0) < 1:
                    prev[v] = u
                    queue.append(v)
            if t in prev:
                break
        if t not in prev:
            return value, prev
        v = t
        while v != s:
            u = prev[v]
            flow[(u, v)] = flow.get((u, v), 0) + 1
            flow[(v, u)] = flow.get((v, u), 0) - 1
            v = u
        value += 1


def lower_bound(G: Graph, stop: int | None = None) -> int:
    """max(delta, max over u != v of lambda(u, v)) (see the module
    docstring); the scan ends early, with a bound of at least stop, once it
    reaches stop, a known upper bound."""
    if G.n == 1:
        return 0
    deg = [G.degree(v) for v in range(G.n)]
    best = min(deg)
    order = sorted((v for v in range(G.n) if deg[v] > best), key=lambda v: -deg[v])
    parent = {v: order[0] for v in order[1:]}
    for i in range(1, len(order)):
        s = order[i]
        if deg[s] <= best or (stop is not None and best >= stop):
            break
        t = parent[s]
        value, side = _min_cut(G, s, t)
        best = max(best, value)
        for j in order[i + 1:]:
            if parent[j] == t and j in side:
                parent[j] = s
    return best


def _bfs_load(G: Graph, root: int):
    """The congestion of the BFS tree from root and its walk (parents,
    depths, visit order), measured on the walk with no tree built."""
    walk = _bfs_walk(G._adj, root)
    return _max_load(G, None, None, None, walk), walk


def _best_bfs_tree(G: Graph, floor: int = 0, first=None) -> tuple[int, SpanningTree]:
    """The least congested BFS tree over all roots, re-measured; the scan
    stops at the first tree whose congestion is at most floor.  Each root is
    measured on its walk; only the winner becomes a SpanningTree.  first,
    when given, is _bfs_load(G, 0)."""
    best = first or _bfs_load(G, 0)
    for root in range(1, G.n):
        if best[0] <= floor:
            break
        cand = _bfs_load(G, root)
        if cand[0] < best[0]:
            best = cand
    parent, _, order = best[1]
    T = SpanningTree(G, frozenset([edge_key(v, parent[v]) for v in order[1:]]))
    return congestion_report(G, T).max_congestion, T


def _cycle_chords(parent, depth, order, nontree, f: Edge):
    """The cycle that the non-tree edge f = (a, b) closes in the tree given
    by _tree_order, as its vertices from a up to the lca and down to b, and
    its chords: (i, j), i < j, mapped to the number of graph edges between
    the parts of the tree hanging from cycle vertices i and j.  Each vertex
    hangs from the cycle vertex that its tree path to the cycle meets first,
    so the only tree edges between two parts are the cycle's path edges, one
    chord (q, q + 1) each; nontree lists the graph's other edges, f among
    them."""
    up, down = [f[0]], [f[1]]
    while up[-1] != down[-1]:
        if depth[up[-1]] >= depth[down[-1]]:
            up.append(parent[up[-1]])
        else:
            down.append(parent[down[-1]])
    cyc = up + down[-2::-1]
    index = {w: q for q, w in enumerate(cyc)}
    h = [0] * len(parent)
    for v in order:  # parents first; above the lca everything hangs from it
        q = index.get(v)
        h[v] = q if q is not None else h[parent[v]] if parent[v] >= 0 else len(up) - 1
    chords = {(q, q + 1): 1 for q in range(len(cyc) - 1)}
    for a, b in nontree:
        ha, hb = h[a], h[b]
        if ha != hb:
            key = (ha, hb) if ha < hb else (hb, ha)
            chords[key] = chords.get(key, 0) + 1
    return cyc, chords


def _swap_loads(chords, N: int, p: int) -> list[int]:
    """Congestions of the cycle's tree edges after the swap that drops cycle
    edge p (edge q joins cycle vertices q and q+1 mod N, and f is edge
    N-1), listed from edge p+1 on around the cycle; each chord loads the
    cycle path between its ends that avoids edge p."""
    diff = [0] * N
    for (i, j), cnt in chords.items():
        a, b = (i - p - 1) % N, (j - p - 1) % N
        if a > b:
            a, b = b, a
        diff[a] += cnt
        diff[b] -= cnt
    out = []
    acc = 0
    for t in range(N - 1):
        acc += diff[t]
        out.append(acc)
    return out


def _swap_search(G: Graph, T: SpanningTree, floor: int) -> tuple[int, SpanningTree]:
    """Single edge swaps from T while the sorted congestion profile falls
    (see the module docstring); returns the final tree, re-measured when
    some swap was taken, and T itself when none was.

    A swap that adds f = (a, b) and drops e changes the congestion of no
    tree edge off the cycle C that f closes: such an edge g leaves f's ends,
    and so e, on one side of T - g, so T - g and T + f - e - g split the
    vertices alike.  So a candidate is measured on C alone, and its profile
    falls exactly when the sorted congestions of C - e (after the swap) fall
    below those of C - f (before it).  Each vertex hangs from the cycle
    vertex its tree path to C first meets (_cycle_chords); every graph edge
    between the parts hanging from two cycle vertices loads the cycle path
    between them (_swap_loads).
    """
    loads = dict(congestion_report(G, T).per_edge)
    if max(loads.values()) <= floor:
        return max(loads.values()), T
    edges = G.sorted_edges()
    m = len(edges)
    tree = set(T.edges)
    nontree = set(G.edges - tree)
    parent, depth, order = T._walk
    measured = idle = i = 0
    while idle < m and measured < 2 * m:
        f = edges[i]
        i = (i + 1) % m
        idle += 1
        if f in tree:
            continue
        cyc, chords = _cycle_chords(parent, depth, order, nontree, f)
        N = len(cyc)
        path = [edge_key(cyc[q], cyc[q + 1]) for q in range(N - 1)]
        before = sorted((loads[e] for e in path), reverse=True)
        for p in sorted(range(N - 1), key=lambda q: (-loads[path[q]], path[q])):
            after = _swap_loads(chords, N, p)
            measured += 1
            if sorted(after, reverse=True) < before:
                del loads[path[p]]
                kept = path[p + 1:] + [f] + path[:p]
                loads.update(zip(kept, after))
                tree.remove(path[p])
                tree.add(f)
                nontree.remove(f)
                nontree.add(path[p])
                parent, depth, order = _tree_order(G.n, tree)
                idle = 0
                break
            if measured == 2 * m:
                break
        if max(loads.values()) <= floor:
            break
    if tree == T.edges:
        return max(loads.values()), T  # no swap: T and its report as given
    T = SpanningTree(G, frozenset(tree))
    rep = congestion_report(G, T)
    assert rep.per_edge == loads, "the swap search's congestions disagree with the report"
    return rep.max_congestion, T


def _split(cut: list[int], nbr: list[int], k: int, memo: dict, R: int, c: int) -> bool:
    """_subset_tree's recursion at k: R splits into blocks Z, each with
    cut[Z] <= k and hanging from a neighbour z of c in Z (hang(Z, z) =
    split(Z - z, z)); the block of R's lowest bit and its z are kept in
    memo."""
    if not R:
        return True
    if (R, c) not in memo:
        low = R & -R
        rest = R ^ low
        sub, found = rest, None
        while found is None:
            Z = sub | low
            if cut[Z] <= k:
                # the first neighbour z of c in Z with hang(Z, z);
                # the rest of R splits alike whichever z it is
                zs = nbr[c] & Z
                while zs and not _split(cut, nbr, k, memo, Z ^ (zs & -zs),
                                        (zs & -zs).bit_length() - 1):
                    zs &= zs - 1
                if zs and _split(cut, nbr, k, memo, R ^ Z, c):
                    found = (Z, (zs & -zs).bit_length() - 1)
            if not sub:
                break
            sub = (sub - 1) & rest
        memo[(R, c)] = found
    return memo[(R, c)] is not None


def _subset_tree(G: Graph, verts, ks: range) -> tuple[int, list[Edge]] | None:
    """The first k in ks for which verts has a spanning tree of G[verts],
    rooted at verts[0], in which the set below each edge has a cut of at
    most k in G, with that tree's edges, or None when no k in ks holds: the
    vertex-subset recursion of the module docstring, for a few vertices.
    Only the first k and the values of cut can be the first to hold."""
    n = len(verts)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    nbr = [sum(bit.get(u, 0) for u in G.neighbors(v)) for v in verts]
    deg = [G.degree(v) for v in verts]
    cut = [0] * (1 << n)  # cut[mask] = |delta_G(mask)|, from mask minus its lowest bit
    for mask in range(1, 1 << n):
        rest = mask & (mask - 1)
        i = (mask ^ rest).bit_length() - 1
        cut[mask] = cut[rest] + deg[i] - 2 * (nbr[i] & rest).bit_count()
    values = set(cut)
    for j, k in enumerate(ks):
        if j and k not in values:
            continue  # the same blocks pass as at k - 1, which failed
        memo: dict[tuple[int, int], tuple[int, int] | None] = {}
        todo = [((1 << n) - 2, 0)]  # the tree rooted at verts[0]
        if not _split(cut, nbr, k, memo, *todo[0]):
            continue
        edges = []
        while todo:
            R, c = todo.pop()
            if R:
                Z, z = memo[(R, c)]
                edges.append(edge_key(verts[c], verts[z]))
                todo += [(Z ^ (1 << z), z), (R ^ Z, c)]
        return k, edges
    return None


def bounds(G: Graph) -> tuple[int, int, SpanningTree]:
    """(lower bound, upper bound, a tree of the upper bound's congestion);
    see the module docstring.  On a graph of at most ORACLE_CAP vertices
    both bounds equal stc.

    The lower bound's scan stops at the congestion of the BFS tree from
    vertex 0, the first tree the upper bound's scan measures, measured once
    for both.
    """
    if G.n == 1:
        return 0, 0, SpanningTree(G, frozenset())
    first = _bfs_load(G, 0)
    lam = lower_bound(G, first[0])
    ub, T = _swap_search(G, _best_bfs_tree(G, lam, first)[1], lam)
    if G.n <= ORACLE_CAP and lam < ub:
        found = _subset_tree(G, range(G.n), range(lam, ub))
        if found is not None:
            k, edges = found
            T = SpanningTree(G, frozenset(edges))
            ub = congestion_report(G, T).max_congestion
            assert ub <= k, f"the subset step's tree has congestion {ub} > {k}"
        lam = ub
    return lam, ub, T
