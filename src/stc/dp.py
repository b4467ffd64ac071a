"""Spanning tree congestion DP over a nice tree decomposition.

States are skeletons: trees over the current bag plus anonymous vertices of
degree >= 3, every vertex and edge labeled past (-1), present (0) or future
(+1), with a congestion counter per edge.  A skeleton abstracts how some
spanning tree threads through the bag: contract everything outside the bag
with degree at most 2 and the residue is the skeleton.  Tables map canonical
states to one representative forest, so the root's empty state carries an
actual optimal tree out of the run.

Node rules: Leaf starts with the empty state.  Forget(v) refuses future edges
at v, routes every graph edge from v into the bag along its skeleton path
(incrementing the counters), then relabels v to past and contracts what
drops below degree 3.  Introduce(v) runs in reverse: rather than projecting
parent states down, each child state is grown by every placement of v (leaf
attachment, adoption of a future vertex, subdivision of a future edge, or
subdivision plus a fresh branch vertex) whose projection is that child state.
Join matches states with isomorphic skeletons whose labels complement each
other off the bag and whose counters sum within budget; a join node has two
or more children (one per child bag, or per group of child bags joined at a
separator they share, see make_nice) and merges their tables pairwise.

Join: one rule, _zip_join, combines two states whose stored edge tuples
line up position by position: no anonymous vertex and no edge may be past
on both sides, labels take the min and counters join.  A state with at most
one anonymous vertex has a forced canonical naming, since bag ids are fixed
and a lone anonymous vertex is always -1.  So two such states are isomorphic
exactly when their counter-free edge tuples (u, v, label == 0) are equal: a
bijection fixes the bag and can only send -1 to -1, so it is the identity
and must map every edge onto itself with the same present flag.  The stored
edge tuples are sorted by (u, v), which is unique per edge, so equal
counter-free tuples line up, and the zipped result keeps every (u, v) and
the name -1, so it is sorted and canonical as it stands.  States with two or
more anonymous vertices are bucketed by _shape_key, and for each bijection
phi from s1's names onto s2's that _isomorphisms finds, s2 is renamed into
s1's names by phi^-1 (its vertex phi(x) becomes x), its edges are sorted and
its anonymous labels put in s1's order.  The renamed tuples then line up
with s1's, _zip_join combines them, and _freeze canonicalizes the result.  A
bijection preserves the number of anonymous vertices, so the two kinds never
pair.  Both are met in one loop over the first table, so pairs reach the
output in the same order either way.

Merge order: a join node of c children folds their tables left-deep,
smallest first with ties in child order (_merge_order).  After each pairwise
_join_table it drops doomed states, with P the union of the operands merged
so far, then dominated ones, and it stops at the first empty result.  Join
is commutative and associative on sets of states, and the doom and dominance
filters are sound after any pairwise merge, as after a binary join node.  So
the order changes no verdict; it changes only which representative forest a
state keeps, which shows only where a run accepts.  Small operands first keep
the intermediate tables small.  On ubp at k = 9 the bag {3,4,5,6} has three
children: two light branches of 89 and 408 states, each the top of an inner
join of leaf branches at a separator they share ({3,6} and {3,4,5}, see
make_nice), and one heavy branch of 54 states with ten forgotten vertices.
In child order the light branches merge into 465 states before the heavy
branch cuts them to 81; merging the heavy branch first (69, then 81) cuts
the pairs the whole run tries from 1,084 to 660.  Each pairwise merge
rounds once, so a join of c children counts as c - 1 levels of the height h
that sets RoundedArith's delta = eps/2h.  The run picks the order, so every
child is charged all c - 1 levels.  Charging each child only its depth in a
chain of binary joins in child order would undercount: on ubp the deepest
branch comes last in child order (depth 1 of 2) but is merged first, so h
is 20, not 19.

Introduce: every placement is built on the child's stored edge tuple.  Leaf
attachment and subdivision keep the anonymous vertices and their names,
adopting x drops x and moves the names below it up by one, and a fresh
branch vertex takes the next name down, so each output is a list of sorted
pairs over the names -1 .. -m.  The placements are emitted in the order a
rule on decoded adjacency dicts meets them (bag vertices in the iteration
order of the child's bag, then -1, -2, ...; future edges grouped by their
first endpoint in that order, then by the second), so every table keeps the
same dict order and the same representative forests.

Forget works on the stored tuple too.  One scan refuses a future edge at v.
A parent-edge map of the skeleton rooted at v is built once per state, the
walk from each bag neighbour u of v up to v counts how often each edge is
used, and add_int adds each count at once.  Then v becomes the anonymous
name -(m+1), past, and its present edges turn past.  Only v and its
neighbours change degree, so v's skeleton degree d decides the rest: with
d >= 3, v stays as a branch vertex; with d = 2 it is contracted, its two
edges merging into one whose counter is the max of theirs; with d = 1 its
edge goes, and a neighbour that is an anonymous vertex of degree 3 is
contracted the same way, the names below it moving up by one as in
introduce's adoption.  So no anonymous vertex below degree 3 is left.

Doomed future edges: let P(t) be the vertices introduced below t.  A bag
vertex x is closed when N(x) is inside P(t), and a state is doomed when a
future edge joins a closed x to an anonymous vertex or to a bag vertex y
with xy not in E.  A doomed state yields only doomed states, or none, at
every node.  Introduce(v): v lies outside P(t), so it is no neighbour of x;
subdividing the edge or adopting y as v leaves a future edge from x to v,
a fresh branch vertex leaves one from x to it, and other placements leave
the edge as it is.  Forget(u): u = x or u = y is refused for a future edge
at u; otherwise the edge stays, since forget contracts only v, now past,
and an anonymous vertex that v leaves at degree 2, which is past too, as a
future anonymous vertex has only future edges and v has none; the edges of
a past vertex are past, so no future edge is merged away.  Join: the
other branch's matching edge is not present, as bijections keep the present
flag; were it past, that branch's forest would hold a path from x whose
first edge xz leaves the bag, so z was forgotten in that branch, lies
outside P(t), and is no neighbour of x.  So the edge stays future, and x
stays closed, until forget(x) refuses it.  Forget cannot create a doomed
state (it keeps P, and each future edge it outputs was one of its input),
so only introduce outputs and the result of each pairwise merge are tested.
Doomedness reads only the counter-free form, so a doomed state never shares
a dominance group with a kept one, and no verdict changes.  When the pruned
and unpruned runs merge each join's tables in the same order, every table is
the unpruned run's table minus its doomed states, in the same order and with
the same forests.  Left to itself, the unpruned run may pick other orders,
as its tables are larger, and keep other representative trees.

The same engine runs the approximation scheme: counters live on a geometric
grid of exact rationals (powers of 1 + eps/2h) and additions round up, which
multiplies the answer by at most (1 + eps) while shrinking the counter range
to O(log k / eps) values per edge.  The grid's rationals grow long (at
eps = 0.1, height 19 and k = 4 the last of its 565 points has a 1,453-digit
denominator), but add_int and join are pure functions of the grid, and one
run meets only a few dozen distinct arguments.  So RoundedArith fills one
lookup table per operation on first use, keyed by (index, addend) and by the
sorted index pair, and every later call is one dict lookup.  A sum past the
last grid point rounds to None; that also rejects every sum above the cap
(1+eps)k, since the last grid point is at most the cap.

At a k with eps*k < 1 the driver runs exact counters instead of rounded
ones, with the same verdict: a rounded run at k accepts whenever stc <= k
(the rounding invariant that tests/dp_checks.py asserts), and only with
a tree of congestion <= (1+eps)k < k+1, that is <= k; so it accepts exactly
when stc <= k, as the exact run does.  This also spares a tiny eps the
~log(k)/delta exact rationals of its grid.

Dominance: after every forget node and every pairwise merge of a join,
states that agree on everything but their counters (the canonical (u, v,
label) triples and the anonymous labels) are compared, and a state is
dropped when another one's counters are <= its own on every edge.  This is
sound because every node rule is monotone in the counters: which
placements introduce tries, which states forget refuses for future edges at
v, how much it adds along each path, and which isomorphisms join pairs up
all depend on the counter-free part alone;
add_int, join and forget's max-merge of contracted edges never decrease a
counter, and they reach the cap no earlier for smaller inputs.  So whatever
extends the dropped state, the same node sequence extends its dominator,
with counters no higher at every step, and the root sees the empty state
whenever the unpruned run would.  Rounded counters are grid indices in
increasing order, so the rule compares them as they are.  Comparing across
_isomorphisms as well (grouping by a counter-free canonical form) would drop
no further state on the graphs of the dp-exact benchmark workload: there no
two surviving states share a counter-free form under different namings.  So
states are grouped by their canonical naming only, and the extra canonical
form is never computed.

Introduce runs no dominance pass, which is sound since dominance only
prunes, and it would find nothing to drop as long as the naming is forced.
The counter-free form of an output fixes its placement (v's degree, and for
a leaf at an anonymous vertex whether that vertex has degree 3), and
undoing it projects the output onto a child state whose counters it copies
(the halves of a subdivided edge keep its counter; v's leaf edge has 0).
So two outputs of one counter-free form, one undercutting the other, would
project onto two child states of one counter-free form, one undercutting
the other; the child table holds no such pair (it was pruned, or is an
introduce table, by induction), so both come from the same state by the
same placement and are equal.  The argument does not reach states with two
or more anonymous vertices: their canonical naming follows the counters,
so two outputs may share a naming that their projections do not, and the
child's pass never compared those projections.  On the graphs the tests
cover, every introduce table is a fixed point of _drop_dominated.

A refuted run stops at its first empty table, since every ancestor of an
empty table is empty, unless the tables are kept; a join stops merging at
its first empty result either way.

Driver: _first_k is the one loop over k.  A decision at k returns tree
edges with a cap on their congestion, or None.  At the first k accepted the
driver re-measures the tree with congestion_report and checks it against
its cap and against the last k refused, r: a tree of congestion <= r
would have made the decision at r accept, so a decision that refuses too
much shows there.  solve_exact_tw asks the DP at its one k, and solve_dtc
the vertex-subset step of stc.bounds per arrangement.  search_k, behind
solve_stc_tw, solve_vi (below a limit), solve_approx_tw (with eps) and the
fes kernel route, first computes the bounds of stc.bounds: lam, and UB,
the congestion of the best BFS tree improved by edge swaps, with that
tree.  Up to ORACLE_CAP vertices it asks the subset step from lam to below
UB at any eps; the first k accepted is stc.  Above, it asks the DP from
lam, or with eps from the smallest k with (1+eps)k >= lam, since a run at
k accepts only with a tree of congestion <= (1+eps)k, up to the certified
stop, on the default decomposition, built once and only when some k needs
a run.  A rounded run takes delta from its height, which covers any merge
order the run picks (see "Merge order"); its cap is (1+eps)k, and an exact
run's is k.  When every k is refused, search_k returns the UB tree.  The
exact search returns stc: no k below the first accepted one admits a tree.
A rounded run's tree may be more congested than the UB tree ((1+eps)k can
exceed UB), so search_k returns the lower of the two.

Certified stop: before the run at k, the driver knows stc >= L = max(lam,
k).  At the first k of the scan L = lam, as that k is at most lam.  At any
later k, the run at k - 1 was refused, and a run at k - 1 accepts whenever
stc <= k - 1: an exact run by definition, a rounded one by the rounding
invariant that tests/dp_checks.py asserts.  So stc >= k.  When UB <=
(1+eps)L the UB tree already keeps the scheme's promise, UB <= (1+eps)stc,
so the scan's list ends before ceil(UB/(1+eps)), and is empty when UB <=
(1+eps)lam.  Without eps that end is UB, so the exact search runs the same
k as without the rule; where lam = UB no k is run.  When every k < UB is
refused, stc >= UB and the UB tree is optimal.  Otherwise the first
accepted k is at most stc, so its tree has congestion <= (1+eps)stc.  Which
tree gives UB does not matter to any of these arguments, only that its
congestion is UB.

The rule trades answer quality for time, within the promise.  On ubp
(lam 9, UB 10 = stc) it returns the UB tree at every eps >= 1/9 with no
run.  On the 2x30 ladder (lam 3 = stc, UB 5) at eps 1 it returns the UB
tree's 5 where a rounded run at k = 2 would have found a tree of
congestion 3; 5 is still within (1+eps)stc = 6.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .bounds import ORACLE_CAP, _subset_step, bounds
from .decomposition import (
    NiceTreeDecomposition,
    decompose,
    make_nice,
    validate_nice,
)
from .errors import InvalidDecompositionError
from .graph import (
    Edge,
    Graph,
    SpanningTree,
    congestion_report,
    edge_key,
    require_connected,
)

# state: (edges, anon_labels); edges is a sorted tuple of (u, v, label, c)
# with bag vertices >= 0 and anonymous vertices -1, -2, ... in canonical
# order; anon_labels[i] is the +-1 label of vertex -(i+1).  Every node rule
# reads and builds this form directly, and _freeze canonicalizes it.
State = tuple[tuple[tuple[int, int, int, int], ...], tuple[int, ...]]
EMPTY_STATE: State = ((), ())


class ExactArith:
    """Plain integer congestion counters capped at k."""

    def __init__(self, k: int):
        self.k = k

    def add_int(self, val: int, r: int) -> int | None:
        v = val + r
        return v if v <= self.k else None

    def join(self, a: int, b: int) -> int | None:
        v = a + b
        return v if v <= self.k else None


class RoundedArith:
    """Counters are indices into {0} u {(1+delta)^i <= (1+eps)k}.

    delta = eps/2h keeps the compounded rounding error of h tree levels
    below the advertised 1+eps; all comparisons are exact rationals, made
    once per distinct argument and then looked up in a table.
    """

    def __init__(self, k: int, eps: Fraction, height: int):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.k = k
        self.eps = Fraction(eps)
        self.delta = self.eps / (2 * max(1, height))
        self.cap = (1 + self.eps) * k
        vals = [Fraction(0)]
        p = Fraction(1)
        while p <= self.cap:
            vals.append(p)
            p *= 1 + self.delta
        self.vals = vals
        self._add: dict[tuple[int, int], int | None] = {}
        self._join: dict[tuple[int, int], int | None] = {}

    def _round_up(self, x: Fraction) -> int | None:
        j = bisect_left(self.vals, x)
        return j if j < len(self.vals) else None

    def add_int(self, idx: int, r: int) -> int | None:
        key = (idx, r)
        try:
            return self._add[key]
        except KeyError:
            out = self._add[key] = self._round_up(self.vals[idx] + r)
            return out

    def join(self, a: int, b: int) -> int | None:
        key = (a, b) if a <= b else (b, a)
        try:
            return self._join[key]
        except KeyError:
            out = self._join[key] = self._round_up(self.vals[a] + self.vals[b])
            return out


# -- state plumbing ---------------------------------------------------------


def _freeze(edges: list, anon_labels: tuple[int, ...]) -> State:
    """The one canonical form, and the one place a new state is frozen:
    edges, a list of sorted (u, v, label, c) over the anonymous names -1 ..
    -m, is sorted in place when the naming is forced (m <= 1, see "Join").
    Otherwise children are ordered by (payload, subtree signature), which
    never mentions anonymous names, so isomorphic namings collapse, and the
    anonymous vertices are named -1, -2, ... in preorder of that ordering."""
    if len(anon_labels) <= 1:
        edges.sort()
        return (tuple(edges), anon_labels)
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for a, b, lbl, c in edges:
        adj.setdefault(a, []).append((b, (lbl, c)))
        adj.setdefault(b, []).append((a, (lbl, c)))
    order = _freeze_sig(adj, anon_labels, min(v for v in adj if v >= 0), -10**9)[1]
    names = {x: -(i + 1) for i, x in enumerate(order)}
    renamed = []
    for a, b, lbl, c in edges:
        a, b = names.get(a, a), names.get(b, b)
        renamed.append((a, b, lbl, c) if a < b else (b, a, lbl, c))
    renamed.sort()
    return (tuple(renamed), tuple(anon_labels[-x - 1] for x in order))


def _freeze_sig(adj, anon_labels: tuple[int, ...], v: int, parent: int):
    """_freeze's signature of v's subtree and its anonymous vertices in preorder."""
    kids = [(pay, *_freeze_sig(adj, anon_labels, u, v)) for u, pay in adj[v] if u != parent]
    kids.sort(key=lambda t: (t[0], t[1]))
    pre = [v] if v < 0 else []
    for _, _, sub in kids:
        pre += sub
    token = ("b", v) if v >= 0 else ("a", anon_labels[-v - 1])
    return (token, tuple((pay, s) for pay, s, _ in kids)), pre


def _drop_anon(edges, x: int):
    """The edges off the anonymous vertex x, with the names below x moved up
    by one (which keeps every pair sorted), and x's neighbours, renamed
    alike, each with its edge's label and counter."""
    kept = []
    nb = []
    for a, b, l, c in edges:
        if a == x:
            nb.append((b, l, c))
        elif b == x:
            nb.append((a + 1 if a < x else a, l, c))
        else:
            kept.append((a + 1 if a < x else a, b + 1 if b < x else b, l, c))
    return kept, nb


def _shape_key(state: State):
    """Bucket key of a state for join.

    The key records the bag ids, the tree structure and which edges are
    present (label 0), and drops the +-1 signs, the anonymous labels, the
    counters and the anonymous names.  That is exactly what every
    _isomorphisms bijection preserves, so two states related by one share
    the key, and bucketing by it loses no pair that the exact comparison of
    labels and counters would accept.
    """
    edges = state[0]
    if not edges:
        return ()
    adj: dict[int, list[tuple[int, bool]]] = {}
    for u, v, lbl, _c in edges:
        adj.setdefault(u, []).append((v, lbl == 0))
        adj.setdefault(v, []).append((u, lbl == 0))
    return _shape_sig(adj, min(v for v in adj if v >= 0), -10**9)


def _shape_sig(adj, v: int, parent: int):
    """_shape_key's signature of v's subtree."""
    kids = [(present, _shape_sig(adj, u, v)) for u, present in adj[v] if u != parent]
    kids.sort()
    token = ("b", v) if v >= 0 else ("a",)
    return (token, tuple(kids))


# -- node rules -------------------------------------------------------------


def _leaf_table():
    return {EMPTY_STATE: frozenset()}


def _doomed(G: Graph, closed: frozenset[int], edges) -> bool:
    """Whether a future edge joins a closed bag vertex to an anonymous vertex
    or to a bag vertex it has no graph edge to (see "Doomed future edges")."""
    for a, b, lbl, _c in edges:
        if lbl == 1 and (a in closed or b in closed):
            if a < 0 or (a, b) not in G.edges:
                return True
    return False


def _introduce_table(G: Graph, nd, child_table, closed: frozenset[int]):
    """Every placement of v on every child state, built from the stored edge
    tuple (see "Introduce" in the module docstring); doomed ones are dropped."""
    v = nd.vertex
    bag = nd.bag
    vnbrs = G.neighbors(v)
    # placements follow the bag's iteration order, then -1, -2, ...
    bag_old = list(bag - {v})
    nbag = len(bag_old)
    rank = {u: i for i, u in enumerate(bag_old)}
    max_anon = len(bag) + 1  # |bag| + anonymous vertices <= 2|bag| + 1
    out: dict[State, frozenset[Edge]] = {}

    def emit(edges: list, anon_labels: tuple[int, ...], F: frozenset[Edge]) -> None:
        """Store a placement: sorted pairs over the anonymous names -1, -2, ..."""
        assert len(anon_labels) <= max_anon, "skeleton exceeds the 2w+1 size bound"
        if closed and _doomed(G, closed, edges):
            return
        state = _freeze(edges, anon_labels)
        if state not in out:
            out[state] = F

    for (edges, anon), F in child_table.items():
        if not bag_old:
            emit([], (), F)
            continue
        # leaf attachment to a bag vertex (present only along a graph edge)
        for u in bag_old:
            e = (u, v) if u < v else (v, u)
            emit([*edges, (*e, 1, 0)], anon, F)
            if u in vnbrs:
                emit([*edges, (*e, 0, 0)], anon, F | {e})
        # ... or to a future branch vertex
        for i, lbl in enumerate(anon):
            if lbl == 1:
                emit([*edges, (-(i + 1), v, 1, 0)], anon, F)
        # adopt an anonymous future vertex x as v
        for i, lbl in enumerate(anon):
            if lbl != 1:
                continue
            kept, nb = _drop_anon(edges, -(i + 1))
            labels = anon[:i] + anon[i + 1:]
            upgradable = [u for u, _, _ in nb if u in vnbrs]
            for r in range(len(upgradable) + 1):
                for chosen in itertools.combinations(upgradable, r):
                    adopted = list(kept)
                    for u, l, c in nb:
                        if u in chosen:
                            l = 0
                        adopted.append((u, v, l, c) if u < v else (v, u, l, c))
                    emit(adopted, labels, F | {edge_key(u, v) for u in chosen})
        # future edges by first endpoint, in the placement order of vertices
        future = sorted(
            (j for j, e in enumerate(edges) if e[2] == 1),
            key=lambda j: rank.get(edges[j][0], nbag - 1 - edges[j][0]),
        )
        # subdivide a future edge with v, each half optionally realized now
        for j in future:
            a, b, _, c = edges[j]
            rest = edges[:j] + edges[j + 1:]
            for la in (1, 0) if a in vnbrs else (1,):
                ea = (a, v, la, c) if a < v else (v, a, la, c)
                Fa = F | {edge_key(a, v)} if la == 0 else F
                for lb in (1, 0) if b in vnbrs else (1,):
                    eb = (b, v, lb, c) if b < v else (v, b, lb, c)
                    Fb = Fa | {edge_key(b, v)} if lb == 0 else Fa
                    emit([*rest, ea, eb], anon, Fb)
        # subdivide a future edge with a fresh branch vertex carrying v
        w = -(len(anon) + 1)
        for j in future:
            a, b, _, c = edges[j]
            emit(
                [*edges[:j], *edges[j + 1:], (w, a, 1, c), (w, b, 1, c), (w, v, 1, 0)],
                anon + (1,),
                F,
            )
    return out


def _forget_table(G: Graph, arith, nd, child_table):
    """Forget v on every child state, on the stored edge tuple (see "Forget"
    in the module docstring)."""
    v = nd.vertex
    nbrs = [u for u in G.neighbors(v) if u in nd.bag]
    out: dict[State, frozenset[Edge]] = {}
    for (edges, anon), F in child_table.items():
        if any(l == 1 and (a == v or b == v) for a, b, l, _c in edges):
            continue  # a future edge at v can never be realized once v is gone
        adj: dict[int, list[tuple[int, int]]] = {}
        for i, (a, b, _l, _c) in enumerate(edges):
            adj.setdefault(a, []).append((b, i))
            adj.setdefault(b, []).append((a, i))
        m = len(anon)
        assert all(len(adj[-i]) >= 3 for i in range(1, m + 1)), "anonymous degree < 3"
        # the parent edge of every vertex in the skeleton rooted at v; each
        # graph edge from v to a bag vertex u is routed from u up to v
        up = {v: (v, -1)}
        todo = [v]
        for x in todo:
            for y, i in adj.get(x, ()):
                if y not in up:
                    up[y] = (x, i)
                    todo.append(y)
        uses = [0] * len(edges)
        for u in nbrs:
            while u != v:
                u, i = up[u]
                uses[i] += 1
        rest = []
        at_v = []  # v's neighbours; its present edges turn past with it
        for (a, b, l, c), r in zip(edges, uses):
            if r:
                c = arith.add_int(c, r)
                if c is None:
                    break  # over the cap: the state is refused
            if a == v or b == v:
                at_v.append((b if a == v else a, c))
            else:
                rest.append((a, b, l, c))
        else:
            out.setdefault(_forget_state(adj, v, rest, at_v, anon), F)
    return out


def _forget_state(adj, v: int, rest: list, at_v: list, anon: tuple[int, ...]) -> State:
    """The state left when v, with its neighbours at_v as (name, counter)
    pairs, leaves a skeleton whose other edges are rest; adj is the input's
    adjacency list."""
    if len(at_v) >= 3:  # v stays as a past branch vertex, the next name down
        w = -(len(anon) + 1)
        return _freeze(rest + [(w, u, -1, c) for u, c in at_v], anon + (-1,))
    if len(at_v) == 2:
        x, lbl, pair = v, -1, [(u, -1, c) for u, c in at_v]
    elif at_v and at_v[0][0] < 0 and len(adj[at_v[0][0]]) == 3:
        x = at_v[0][0]  # v was a leaf at x, an anonymous vertex of degree 3
        lbl = anon[-x - 1]
        rest, pair = _drop_anon(rest, x)
        anon = anon[:-x - 1] + anon[-x:]
    else:
        return _freeze(rest, anon)
    # contract x: its two edges merge, keeping the larger counter
    y1, y2 = (y for y, _ in adj[x] if y != v)
    assert all(z != y2 for z, _ in adj[y1]), "a contraction closes a cycle"
    (y1, l1, c1), (y2, l2, c2) = pair
    assert l1 == lbl == l2, "the edge labels at a contracted vertex match it"
    c = max(c1, c2)
    rest.append((y1, y2, lbl, c) if y1 < y2 else (y2, y1, lbl, c))
    return _freeze(rest, anon)


def _isomorphisms(s1: State, s2: State):
    """Bijections phi of anonymous names mapping s1 onto s2, bag ids fixed,
    as dicts over the names -m .. -1 in the order of
    itertools.permutations(-m .. -1).

    Structure and the 0/non-0 edge distinction must be preserved; label signs
    and counters are left to the caller.
    """
    (edges1, anon1), (edges2, anon2) = s1, s2
    if len(anon1) != len(anon2) or len(edges1) != len(edges2):
        return
    present2 = {(u, v): lbl == 0 for u, v, lbl, _c in edges2}
    names = range(-len(anon1), 0)
    for perm in itertools.permutations(names):
        phi = dict(zip(names, perm))
        for x, y, lbl, _c in edges1:
            a, b = phi.get(x, x), phi.get(y, y)
            if present2.get((a, b) if a < b else (b, a)) != (lbl == 0):
                break
        else:
            yield phi


def _zip_key(state: State):
    """Join bucket of a state with at most one anonymous vertex: its
    counter-free edges, positionally comparable (see "Join" in the module
    docstring)."""
    return tuple((u, v, lbl == 0) for u, v, lbl, _c in state[0])


def _zip_join(arith, s1: State, s2: State) -> State | None:
    """The one join rule: combine two states whose edge tuples line up
    position by position and whose anonymous labels do by index, or None
    when some vertex or edge is past on both sides or a counter overflows."""
    (edges1, anon1), (edges2, anon2) = s1, s2
    if -1 in anon1 and -1 in anon2 and -1 in map(max, anon1, anon2):
        return None  # labels are -1, 0 or 1: max is -1 when both are past
    edges = []
    for (u, v, l1, c1), (_, _, l2, c2) in zip(edges1, edges2):
        if l1 == -1 and l2 == -1:
            return None
        c = arith.join(c1, c2)
        if c is None:
            return None
        edges.append((u, v, l1 if l1 < l2 else l2, c))
    return (tuple(edges), tuple(map(min, anon1, anon2)) if anon1 else ())


def _join_table(arith, t1, t2):
    """Join two tables: the operands of a join node merged so far, and the
    next operand (see "Join" and "Merge order" in the module docstring)."""
    out: dict[State, frozenset[Edge]] = {}
    zipped: dict[tuple, list] = {}
    buckets: dict[tuple, list] = {}
    for s2, F2 in t2.items():
        if len(s2[1]) <= 1:
            zipped.setdefault(_zip_key(s2), []).append((s2, F2))
        else:
            buckets.setdefault(_shape_key(s2), []).append((s2, F2))
    for s1, F1 in t1.items():
        if len(s1[1]) <= 1:
            for s2, F2 in zipped.get(_zip_key(s1), ()):
                sJ = _zip_join(arith, s1, s2)
                if sJ is not None and sJ not in out:
                    out[sJ] = F1 | F2
            continue
        for s2, F2 in buckets.get(_shape_key(s1), ()):
            edges2, anon2 = s2
            for phi in _isomorphisms(s1, s2):
                inv = {y: x for x, y in phi.items()}
                renamed = []
                for u, v, lbl, c in edges2:
                    a, b = inv.get(u, u), inv.get(v, v)
                    renamed.append((a, b, lbl, c) if a < b else (b, a, lbl, c))
                renamed.sort()
                aligned = tuple(anon2[-phi[-(i + 1)] - 1] for i in range(len(anon2)))
                sJ = _zip_join(arith, s1, (renamed, aligned))
                if sJ is not None:
                    sJ = _freeze(*sJ)
                    if sJ not in out:
                        out[sJ] = F1 | F2
    return out


# -- engine -----------------------------------------------------------------


def _drop_dominated(table):
    """Drop every state whose counters another state of the same counter-free
    form undercuts on all edges (see the module docstring)."""
    groups: dict[State, list[State]] = {}
    for state in table:
        edges, anon_labels = state
        groups.setdefault(
            (tuple(e[:3] for e in edges), anon_labels), []
        ).append(state)
    dropped = set()
    for members in groups.values():
        if len(members) == 1:
            continue
        # a dominator has a smaller counter sum, so it is met first
        kept: list[list[int]] = []
        for state in sorted(members, key=lambda s: sum(e[3] for e in s[0])):
            cs = [e[3] for e in state[0]]
            if any(all(a <= b for a, b in zip(kc, cs)) for kc in kept):
                dropped.add(state)
            else:
                kept.append(cs)
    if not dropped:
        return table
    return {s: F for s, F in table.items() if s not in dropped}


def _merge_order(tables: list) -> list[int]:
    """The order a join node merges its operand tables in: smallest first,
    ties in child order (see "Merge order" in the module docstring)."""
    return sorted(range(len(tables)), key=lambda j: len(tables[j]))


def _closed(G: Graph, bag: frozenset[int], proc: frozenset[int]) -> frozenset[int]:
    """Bag vertices whose every neighbour is processed."""
    return frozenset(x for x in bag if G.neighbors(x) <= proc)


@dataclass
class DPRun:
    forest: frozenset[Edge] | None
    tables: dict[int, dict[State, frozenset[Edge]]] | None


def _run_dp(
    G: Graph,
    ntd: NiceTreeDecomposition,
    arith,
    keep_tables: bool = False,
    validator=None,
) -> DPRun:
    nodes = ntd.nodes
    tables: dict[int, dict] = {}
    processed: dict[int, frozenset[int]] = {}
    for i in ntd.postorder():
        nd = nodes[i]
        if nd.kind == "leaf":
            tbl = _leaf_table()
            proc: frozenset[int] = frozenset()
        elif nd.kind == "introduce":
            proc = processed[nd.children[0]] | {nd.vertex}
            tbl = _introduce_table(
                G, nd, tables[nd.children[0]], _closed(G, nd.bag, proc)
            )
        elif nd.kind == "forget":
            tbl = _drop_dominated(_forget_table(G, arith, nd, tables[nd.children[0]]))
            proc = processed[nd.children[0]]
        else:
            kids = [nd.children[j] for j in _merge_order([tables[c] for c in nd.children])]
            tbl, merged = tables[kids[0]], processed[kids[0]]
            for c in kids[1:]:
                tbl = _join_table(arith, tbl, tables[c])
                merged |= processed[c]
                closed = _closed(G, nd.bag, merged)
                if closed:
                    tbl = {s: F for s, F in tbl.items() if not _doomed(G, closed, s[0])}
                tbl = _drop_dominated(tbl)
                if not tbl:  # joining more tables keeps it empty
                    break
            proc = frozenset().union(*(processed[c] for c in kids))
        tables[i] = tbl
        processed[i] = proc
        if validator is not None:
            for state, F in tbl.items():
                msg = validator(nd.bag, proc, state, F)
                assert msg is None, f"node {i} ({nd.kind}): {msg}"
        if not keep_tables:
            if not tbl:  # every ancestor of an empty table is empty
                return DPRun(None, None)
            for c in nd.children:
                del tables[c]
    forest = tables[ntd.root].get(EMPTY_STATE)
    return DPRun(forest, tables if keep_tables else None)


def default_nice_decomposition(G: Graph) -> NiceTreeDecomposition:
    return make_nice(decompose(G))


def _checked_ntd(G: Graph, ntd: NiceTreeDecomposition | None) -> NiceTreeDecomposition:
    if ntd is None:
        return default_nice_decomposition(G)
    msg = validate_nice(G, ntd)
    if msg is not None:
        raise InvalidDecompositionError(msg)
    return ntd


def _dp_decision(G: Graph, ntd: NiceTreeDecomposition, eps: Fraction | None):
    """The DP at k for _first_k, exact without eps or where eps*k < 1."""

    def decide(k: int):
        exact = eps is None or eps * k < 1
        arith = ExactArith(k) if exact else RoundedArith(k, eps, ntd.height)
        forest = _run_dp(G, ntd, arith).forest
        return None if forest is None else (forest, k if exact else arith.cap)

    return decide


def _first_k(G: Graph, ks, decide) -> tuple[int, SpanningTree, int] | None:
    """(re-measured congestion, tree, k) at the first k in ks that decide
    accepts, or None: the one loop over k (see "Driver")."""
    refused = None
    for k in ks:
        found = decide(k)
        if found is not None:
            edges, cap = found
            T = SpanningTree(G, frozenset(edges))
            got = congestion_report(G, T).max_congestion
            assert got <= cap, f"congestion {got} > {cap} at k = {k}"
            assert refused is None or got > refused, f"congestion {got} refused at k = {refused}"
            return got, T, k
        refused = k
    return None


def solve_exact_tw(
    G: Graph,
    k: int,
    ntd: NiceTreeDecomposition | None = None,
) -> SpanningTree | None:
    """Spanning tree with congestion <= k, or None if none exists."""
    require_connected(G)
    if k < 1:
        raise ValueError("k must be >= 1")
    found = _first_k(G, (k,), _dp_decision(G, _checked_ntd(G, ntd), None))
    return None if found is None else found[1]


def search_k(
    G: Graph,
    limit: int | None = None,
    eps: Fraction | None = None,
) -> tuple[int, SpanningTree] | None:
    """The search over k (see "Driver" in the module docstring).

    Returns a tree with its re-measured congestion, exact without eps and
    within (1+eps) of stc with it, or None when no tree below limit is found.
    """
    lam, ub, T_ub = bounds(G)
    stop = ub if limit is None else min(ub, limit)
    if G.n <= ORACLE_CAP:
        found = _first_k(G, *_subset_step(G, range(G.n), lam, stop))
    else:
        slack = 1 + (eps or 0)
        # certified stop: the scan ends where UB <= slack * max(lam, k)
        hi = min(stop, math.ceil(ub / slack)) if ub > slack * lam else 0
        ks = range(math.ceil(lam / slack), hi)
        decide = _dp_decision(G, default_nice_decomposition(G), eps) if ks else None
        found = _first_k(G, ks, decide)
    if found is not None:
        got, T, _ = found
        return (got, T) if got <= ub else (ub, T_ub)
    return (ub, T_ub) if limit is None or ub < limit else None


def solve_stc_tw(G: Graph) -> tuple[int, SpanningTree]:
    """Exact spanning tree congestion: the DP searches k between bounds."""
    require_connected(G)
    return search_k(G)


def solve_approx_tw(G: Graph, eps) -> tuple[int, SpanningTree]:
    """(1+eps)-approximation; returns the tree's re-measured congestion."""
    require_connected(G)
    eps = _to_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return search_k(G, eps=eps)


def _to_fraction(eps) -> Fraction:
    if isinstance(eps, float):
        return Fraction(str(eps))
    return Fraction(eps)
