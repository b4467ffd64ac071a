"""Vertex-integrity solver: component types, forest patterns, and ILP search.

With a modulator S whose removal leaves components of size <= k - |S|, any
spanning tree decomposes into T[S], at most |S| - 1 "non-leaf" components
whose pieces connect two or more S vertices, and leaf components whose pieces
each hang off a single S vertex.  Components with identical internal shape
and S-attachments are interchangeable, so a tree is determined up to
congestion by its signature: T[S] plus per-(type, forest pattern) counts.
Congestion below k^2 is handled exactly by the treewidth solver; above that
only edges of T_H (the tree restricted to S and non-leaf components) matter,
and their congestion is affine in the pattern counts, which an integer
program minimizes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import GraphError
from ..graph import (
    Edge,
    Graph,
    SpanningTree,
    _vertex_loads,
    congestion_report,
    connected_components,
    edge_key,
    induced_subgraph,
    require_connected,
)
from ..oracle import enumerate_spanning_trees
from ..dp import search_k


@dataclass(frozen=True)
class ForestType:
    """Canonical attachment pattern of one component: edges inside the
    component plus component-to-S edges, in representative coordinates."""

    edges: frozenset[Edge]
    leaf: bool


@dataclass
class ComponentType:
    """One equivalence class of components of G - S.

    members are sorted vertex tuples, lex-first member is the
    representative; isos[i] maps member i's vertices onto the
    representative's preserving edges and S-neighborhoods; autos are the
    S-neighborhood-preserving automorphisms of the representative.
    """

    members: list[tuple[int, ...]]
    isos: list[dict[int, int]]
    autos: list[dict[int, int]]

    @property
    def rep(self) -> tuple[int, ...]:
        return self.members[0]


@dataclass(frozen=True)
class Signature:
    """T[S] edges plus (class, forest type, count) triples."""

    s_edges: frozenset[Edge]
    counts: tuple[tuple[int, int, int], ...]


def checked_modulator(G: Graph, S) -> frozenset[int]:
    """S as a frozenset; GraphError when a vertex lies outside 0..n-1."""
    S = frozenset(S)
    if any(not 0 <= s < G.n for s in S):
        raise GraphError("modulator vertex out of range")
    return S


def _internal_edges(G: Graph, comp) -> list[Edge]:
    cs = set(comp)
    return sorted(e for e in G.edges if e[0] in cs and e[1] in cs)


def _canonical_component(G: Graph, S: frozenset[int], comp):
    """Minimal relabeling of comp to positions 0..|comp|-1, and comp's
    S-fixing automorphisms (edge- and S-neighborhood-preserving bijections).

    The key pairs the relabeled edge list with each position's exact
    S-neighborhood; pos is the first permutation that reaches the minimal
    key.  A permutation q reaches it exactly when the bijection
    v -> q[pos[v]] is an S-fixing automorphism: equal keys mean that edges
    and S-neighborhoods agree position by position, and conversely an
    automorphism a gives q = a o pos^-1 the same key.  So the permutations
    at the minimal key yield every automorphism once, in no fixed order.
    """
    internal = _internal_edges(G, comp)
    best_key = None
    best_pos = None
    minimal: list[tuple[int, ...]] = []
    for perm in itertools.permutations(comp):
        pos = {v: i for i, v in enumerate(perm)}
        edges = tuple(sorted(edge_key(pos[u], pos[v]) for u, v in internal))
        attach = tuple(tuple(sorted(G.neighbors(v) & S)) for v in perm)
        key = (edges, attach)
        if best_key is None or key < best_key:
            best_key, best_pos = key, pos
            minimal = [perm]
        elif key == best_key:
            minimal.append(perm)
    autos = [{v: q[best_pos[v]] for v in comp} for q in minimal]
    return best_key, best_pos, autos


def _pattern_canon(edges, autos) -> frozenset[Edge]:
    """Least image of a pattern under the automorphism group (S fixed); a
    minimum, so the order of autos does not matter."""
    best = None
    for m in autos:
        img = tuple(sorted(edge_key(m.get(a, a), m.get(b, b)) for a, b in edges))
        if best is None or img < best:
            best = img
    return frozenset(best)


def _forest_patterns(G: Graph, S: frozenset[int], comp, autos) -> list[ForestType]:
    """All attachment patterns up to automorphism: subsets of the component's
    internal and component-to-S edges forming a forest that covers the
    component, every piece attached to S; leaf = one attachment per piece."""
    internal = _internal_edges(G, comp)
    found: dict[frozenset[Edge], ForestType] = {}
    for bits in range(1 << len(internal)):
        FI = [internal[i] for i in range(len(internal)) if bits >> i & 1]
        root = {v: v for v in comp}

        def find(v):
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        cyclic = False
        for u, v in FI:
            ru, rv = find(u), find(v)
            if ru == rv:
                cyclic = True
                break
            root[ru] = rv
        if cyclic:
            continue
        pieces: dict[int, list[int]] = {}
        for v in comp:
            pieces.setdefault(find(v), []).append(v)
        piece_list = [sorted(p) for p in pieces.values()]
        options = []
        for piece in piece_list:
            snbrs = sorted({s for c in piece for s in G.neighbors(c) & S})
            opts = []
            for r in range(1, len(snbrs) + 1):
                for chosen in itertools.combinations(snbrs, r):
                    hosts = [sorted(c for c in piece if s in G.neighbors(c)) for s in chosen]
                    for cc in itertools.product(*hosts):
                        opts.append(tuple((c, s) for c, s in zip(cc, chosen)))
            options.append(opts)
        if any(not o for o in options):
            continue
        for combo in itertools.product(*options):
            # distinct pieces sharing two S vertices would close a cycle
            uf: dict = {}

            def ufind(x):
                uf.setdefault(x, x)
                while uf[x] != x:
                    uf[x] = uf[uf[x]]
                    x = uf[x]
                return x

            ok = True
            for pi, group in enumerate(combo):
                for _, s in group:
                    ra, rb = ufind(("p", pi)), ufind(("v", s))
                    if ra == rb:
                        ok = False
                        break
                    uf[ra] = rb
                if not ok:
                    break
            if not ok:
                continue
            edges = list(FI) + [edge_key(c, s) for group in combo for c, s in group]
            leaf = all(len(group) == 1 for group in combo)
            canon = _pattern_canon(edges, autos)
            found.setdefault(canon, ForestType(canon, leaf))
    return sorted(found.values(), key=lambda f: (not f.leaf, sorted(f.edges)))


def enumerate_types(G: Graph, S):
    """Classify components of G - S and enumerate each class's patterns.

    Returns (classes, forests) where forests[i] lists class i's ForestTypes,
    leaf patterns first.
    """
    S = checked_modulator(G, S)
    comps = connected_components(G, skip=S)
    keys: list = []
    classes: list[ComponentType] = []
    canon_pos: list[dict[int, int]] = []
    for comp in comps:
        key, pos, autos = _canonical_component(G, S, comp)
        if key in keys:
            ci = keys.index(key)
            rep_inv = {i: v for v, i in canon_pos[ci].items()}
            classes[ci].members.append(tuple(comp))
            classes[ci].isos.append({v: rep_inv[pos[v]] for v in comp})
        else:
            keys.append(key)
            canon_pos.append(pos)
            classes.append(
                ComponentType(
                    members=[tuple(comp)],
                    isos=[{v: v for v in comp}],
                    autos=autos,
                )
            )
    forests = [_forest_patterns(G, S, c.rep, c.autos) for c in classes]
    return classes, forests


def ilp_minimize_max(groups, a, b):
    """Minimize max_e (a[e] + sum_v b[v][e] * x_v) over nonnegative integers.

    groups: (total, variable index list) pairs partitioning the variables;
    each group's variables must sum to its total.  Returns (z, x) with the
    lexicographically smallest optimal x; raises ValueError when a nonzero
    total has no variables.
    """
    group_of: dict[int, int] = {}
    for gi, (total, idxs) in enumerate(groups):
        if total < 0:
            raise ValueError("negative group total")
        if not idxs and total > 0:
            raise ValueError("infeasible: empty group with nonzero total")
        for v in idxs:
            if v in group_of:
                raise ValueError(f"variable {v} in two groups")
            group_of[v] = gi
    nv = len(group_of)
    if sorted(group_of) != list(range(nv)):
        raise ValueError("variable indices must be 0..nv-1")
    ne = len(a)
    if len(b) != nv or any(len(row) != ne for row in b):
        raise ValueError("coefficient shape mismatch")
    if any(x < 0 for row in b for x in row) or any(x < 0 for x in a):
        raise ValueError("coefficients must be nonnegative")
    last = {gi: max(idxs) for gi, (_, idxs) in enumerate(groups) if idxs}
    remaining = [total for total, _ in groups]
    cur = list(a)
    x = [0] * nv
    best: list = [None]
    _ilp_dfs(b, group_of, last, remaining, cur, x, best, 0)
    assert best[0] is not None
    return best[0]


def _ilp_dfs(b, group_of, last, remaining, cur, x, best, v: int) -> None:
    """ilp_minimize_max's branch and bound from variable v on: x[:v] is set,
    cur holds the objective's terms and remaining the groups' unspent
    totals; best[0] becomes the first optimal (z, x) found."""
    if best[0] is not None and cur and max(cur) >= best[0][0]:
        return
    if v == len(x):
        z = max(cur) if cur else 0
        if best[0] is None or z < best[0][0]:
            best[0] = (z, tuple(x))
        return
    gi = group_of[v]
    ne = len(cur)
    vals = [remaining[gi]] if last[gi] == v else range(remaining[gi] + 1)
    for val in vals:
        x[v] = val
        remaining[gi] -= val
        for e in range(ne):
            cur[e] += b[v][e] * val
        _ilp_dfs(b, group_of, last, remaining, cur, x, best, v + 1)
        for e in range(ne):
            cur[e] -= b[v][e] * val
        remaining[gi] += val
    x[v] = 0


def _count_uses(tree_edges, verts, graph_edges, counted):
    """For each counted tree edge, how many of graph_edges detour over it.

    The overlay is relabelled to 0..|verts|-1 and measured by the one
    congestion evaluator: a tree edge's count is the load of its endpoint
    farther from the root, plus one when the edge itself is in graph_edges.
    """
    name = {v: i for i, v in enumerate(sorted(verts))}
    base = Graph(len(name), frozenset(edge_key(name[u], name[v]) for u, v in graph_edges))
    tree = frozenset(edge_key(name[u], name[v]) for u, v in tree_edges)
    parent, _, load = _vertex_loads(base, None, tree)
    out = []
    for u, v in counted:
        a, b = name[u], name[v]
        out.append(load[a if parent[a] == b else b] + (edge_key(a, b) in base.edges))
    return out


def _pull_back(pattern: ForestType, iso: dict[int, int]) -> set[Edge]:
    """Map a representative-coordinate pattern onto a member (S fixed)."""
    inv = {r: m for m, r in iso.items()}
    return {edge_key(inv.get(a, a), inv.get(b, b)) for a, b in pattern.edges}


def tree_from_signature(G: Graph, classes, forests, sig: Signature) -> SpanningTree:
    """Rebuild a spanning tree from T[S] and type counts.

    Members are paired with pattern indices in order; any pairing yields the
    same congestion.
    """
    per_class: dict[int, list[tuple[int, int]]] = {}
    for ci, j, cnt in sig.counts:
        per_class.setdefault(ci, []).append((j, cnt))
    edges = set(sig.s_edges)
    for ci, cls in enumerate(classes):
        wanted = sorted(per_class.get(ci, []))
        expanded = [j for j, cnt in wanted for _ in range(cnt)]
        if len(expanded) != len(cls.members):
            raise GraphError(
                f"signature covers {len(expanded)} of {len(cls.members)} "
                f"components in class {ci}"
            )
        for iso, j in zip(cls.isos, expanded):
            edges |= _pull_back(forests[ci][j], iso)
    return SpanningTree(G, frozenset(edges))


def solve_vi(G: Graph, S) -> tuple[int, SpanningTree]:
    """Exact stc given a modulator S bounding the vertex integrity."""
    require_connected(G)
    S = checked_modulator(G, S)
    comps = connected_components(G, skip=S)
    maxc = max((len(c) for c in comps), default=0)
    k = len(S) + maxc

    # answers below k^2 are in reach of the treewidth solver; past this
    # point every leaf-local edge congestion (< k^2) is irrelevant
    found = search_k(G, limit=k * k)
    if found is not None:
        return found

    classes, forests = enumerate_types(G, S)
    sizes = [len(c.members) for c in classes]
    limit = max(len(S) - 1, 0)
    best = None  # (z, signature)
    for counts in _bounded_counts([min(sz, limit) for sz in sizes], limit):
        hverts = set(S)
        for ci, cnt in enumerate(counts):
            for mi in range(cnt):
                hverts.update(classes[ci].members[mi])
        H, old = induced_subgraph(G, hverts)
        if not H.is_connected():
            continue
        h_edges = [edge_key(old[a], old[b]) for a, b in H.edges]
        for tree in enumerate_spanning_trees(H):
            th = sorted(edge_key(old[a], old[b]) for a, b in tree)
            cand = _solve_for_guess(G, S, classes, forests, counts, hverts, h_edges, th)
            if cand is not None and (best is None or cand[0] < best[0]):
                best = cand
    assert best is not None, "no consistent spanning tree for any guess"
    z, sig = best
    T = tree_from_signature(G, classes, forests, sig)
    got = congestion_report(G, T).max_congestion
    assert got == z, f"program value {z} disagrees with report {got}"
    return z, T


def _bounded_counts(caps: list[int], total: int):
    """All tuples 0 <= c_i <= caps[i] with sum <= total, in lexicographic order."""
    if not caps:
        yield ()
        return
    for c in range(min(caps[0], total) + 1):
        for rest in _bounded_counts(caps[1:], total - c):
            yield (c,) + rest


def _solve_for_guess(G, S, classes, forests, counts, hverts, h_edges, th):
    a = _count_uses(th, hverts, h_edges, th)
    groups = []
    bvecs = []
    varmap = []  # (class, forest index) per variable
    for ci, cls in enumerate(classes):
        rest = len(cls.members) - counts[ci]
        if rest == 0:
            continue
        mi = counts[ci]
        member = cls.members[mi]
        incident = [
            e for e in G.edges if e[0] in member or e[1] in member
        ]
        idxs = []
        for j, pat in enumerate(forests[ci]):
            if not pat.leaf:
                continue
            overlay = set(th) | _pull_back(pat, cls.isos[mi])
            bvecs.append(_count_uses(overlay, set(hverts) | set(member), incident, th))
            varmap.append((ci, j))
            idxs.append(len(bvecs) - 1)
        groups.append((rest, idxs))
    try:
        z, x = ilp_minimize_max(groups, a, bvecs)
    except ValueError:
        return None
    sig_counts: dict[tuple[int, int], int] = {}
    for (ci, j), val in zip(varmap, x):
        if val:
            sig_counts[(ci, j)] = sig_counts.get((ci, j), 0) + val
    # the guessed non-leaf components keep their T_H-induced patterns
    th_set = set(th)
    for ci, cls in enumerate(classes):
        for mi in range(counts[ci]):
            member = set(cls.members[mi])
            mine = [
                e for e in th_set if e[0] in member or e[1] in member
            ]
            iso = cls.isos[mi]
            mapped = [edge_key(iso.get(p, p), iso.get(q, q)) for p, q in mine]
            canon = _pattern_canon(mapped, cls.autos)
            j = next(
                i for i, pat in enumerate(forests[ci]) if pat.edges == canon
            )
            sig_counts[(ci, j)] = sig_counts.get((ci, j), 0) + 1
    s_edges = frozenset(e for e in th_set if e[0] in S and e[1] in S)
    sig = Signature(
        s_edges, tuple(sorted((ci, j, c) for (ci, j), c in sig_counts.items()))
    )
    return z, sig
