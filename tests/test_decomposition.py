from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from conftest import (
    cycle_graph,
    grid_graph,
    hung_gadget_graph,
    path_graph,
    random_connected_graph,
    suite_graphs,
)
from dp_checks import introduces_saved, subtree_heights
from stc.decomposition import (
    NiceNode,
    NiceTreeDecomposition,
    TreeDecomposition,
    _exact_order,
    _min_fill_order,
    _order_to_td,
    decompose,
    make_nice,
    validate_nice,
    validate_td,
)
from stc.dp import default_nice_decomposition
from stc.errors import DisconnectedGraphError
from stc.graph import Graph
from stc.reductions import gen_ubp


def brute_force_width(G: Graph) -> int:
    """Independent check: try every elimination order (n <= 7)."""
    import itertools

    best = G.n
    for order in itertools.permutations(range(G.n)):
        adj = [set(G.neighbors(v)) for v in range(G.n)]
        alive = set(range(G.n))
        w = 0
        for v in order:
            nb = adj[v] & alive
            w = max(w, len(nb))
            if w >= best:
                break
            for a in nb:
                for b in nb:
                    if a < b:
                        adj[a].add(b)
                        adj[b].add(a)
            alive.remove(v)
        best = min(best, w)
    return best


def test_tree_width_one():
    td = decompose(path_graph(6))
    assert validate_td(path_graph(6), td) is None
    assert td.width == 1


def test_cycle_width_two():
    td = decompose(cycle_graph(5))
    assert validate_td(cycle_graph(5), td) is None
    assert td.width == 2


def test_grid_width_three_exact():
    G = grid_graph(3)
    td = decompose(G)
    assert validate_td(G, td) is None
    assert td.width == 3


def test_exact_matches_bruteforce():
    rng = random.Random(821)
    for _ in range(15):
        n = rng.randint(3, 7)
        G = random_connected_graph(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
        td = decompose(G)
        assert validate_td(G, td) is None
        assert td.width == brute_force_width(G)


def test_decompose_takes_the_exact_order_up_to_12_vertices_and_min_fill_above():
    rng = random.Random(825)
    differ = set()
    for n in (6, 9, 12, 12, 13, 13, 14):
        G = random_connected_graph(rng, n, rng.randint(n, 2 * n))
        exact = _order_to_td(G, _exact_order(G)).bags
        min_fill = _order_to_td(G, _min_fill_order(G)).bags
        assert decompose(G).bags == (exact if n <= 12 else min_fill)
        if exact != min_fill:
            differ.add(n <= 12)
    assert differ == {True, False}  # each side of the switch tells the orders apart


def test_heuristic_valid_and_not_crazy():
    rng = random.Random(822)
    for _ in range(10):
        n = rng.randint(4, 16)
        G = random_connected_graph(rng, n, rng.randint(n - 1, 2 * n))
        td = _order_to_td(G, _min_fill_order(G))
        assert validate_td(G, td) is None
        if n <= 7:
            assert td.width >= brute_force_width(G)


def test_decompose_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        decompose(Graph.from_edges(3, [(0, 1)]))


def test_validate_catches_violations():
    G = cycle_graph(4)
    ok = decompose(G)
    # drop a vertex from every bag: coverage violation
    bad = TreeDecomposition(
        G.n, tuple(b - {0} for b in ok.bags), ok.tree
    )
    assert "coverage" in validate_td(G, bad)
    # break occurrence connectivity
    bags = (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3, 0}))
    td = TreeDecomposition(4, bags, frozenset({(0, 1), (1, 2)}))
    msg = validate_td(G, td)
    assert msg is not None and "connectivity" in msg


def _validate_td_by_scan(G, td):
    """Reference for validate_td: the same checks, scanning every bag for
    each edge and each vertex."""
    b = len(td.bags)
    if td.n != G.n:
        return f"decomposition is for n={td.n}, graph has n={G.n}"
    for i, j in td.tree:
        if not (0 <= i < b and 0 <= j < b and i != j):
            return f"tree edge ({i},{j}) out of range"
    if len(td.tree) != b - 1:
        return f"{len(td.tree)} tree edges for {b} bags, not a tree"
    adj = {i: set() for i in range(b)}
    for i, j in td.tree:
        adj[i].add(j)
        adj[j].add(i)

    def reach(start, allowed):
        seen, stack = {start}, [start]
        while stack:
            for y in adj[stack.pop()]:
                if y in allowed and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    if len(reach(0, set(range(b)))) != b:
        return "bag tree is disconnected"
    if set().union(*td.bags) != set(range(G.n)):
        return "vertex-coverage violation"
    for u, v in G.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            return f"edge-coverage violation for ({u},{v})"
    for v in range(G.n):
        holding = {i for i, bag in enumerate(td.bags) if v in bag}
        if reach(min(holding), holding) != holding:
            return f"connectivity violation for vertex {v}"
    return None


def test_validate_td_agrees_with_a_bag_scan_on_corrupted_decompositions():
    # one random corruption each of 400 decompositions: a vertex dropped
    # from or added to a bag, or a tree edge moved; same verdict, same
    # first violation
    rng = random.Random(824)
    seen = set()
    for _ in range(400):
        n = rng.randint(3, 12)
        G = random_connected_graph(rng, n, rng.randint(n - 1, min(2 * n, n * (n - 1) // 2)))
        td = _order_to_td(G, _min_fill_order(G))
        bags, tree = list(td.bags), set(td.tree)
        i = rng.randrange(len(bags))
        kind = rng.randrange(4)
        if kind == 0:
            bags[i] = bags[i] - {rng.choice(sorted(bags[i]))}
        elif kind == 1:
            bags[i] = bags[i] | {rng.randrange(n)}
        elif kind == 2 and tree:
            tree.remove(rng.choice(sorted(tree)))
            j = rng.randrange(len(bags))
            if i != j:
                tree.add((min(i, j), max(i, j)))
        bad = TreeDecomposition(n, tuple(bags), frozenset(tree))
        msg = validate_td(G, bad)
        assert msg == _validate_td_by_scan(G, bad)
        seen.add(None if msg is None else msg.split(" violation")[0].split(" for")[0])
    assert {None, "vertex-coverage", "edge-coverage", "connectivity"} <= seen


def test_make_nice_shape_and_validity():
    # ten random graphs, which have no grouped joins, then ubp and a
    # gadget graph, which do
    rng = random.Random(823)
    graphs = []
    for _ in range(10):
        n = rng.randint(3, 10)
        graphs.append(random_connected_graph(rng, n, rng.randint(n - 1, min(2 * n, n * (n - 1) // 2))))
    graphs += [gen_ubp(3, [1, 1, 1]).graph, hung_gadget_graph(random.Random(829), 12)]
    saved = []
    for G in graphs:
        td = decompose(G)
        ntd = make_nice(td)
        assert validate_nice(G, ntd) is None
        assert ntd.width == td.width
        kinds = [nd.kind for nd in ntd.nodes]
        assert kinds.count("forget") == G.n
        # each vertex is forgotten once, and one in a join's bag is
        # introduced below each of the join's children
        joins = [nd for nd in ntd.nodes if nd.kind == "join"]
        assert all(len(nd.children) >= 2 for nd in joins)
        assert kinds.count("introduce") == G.n + sum(
            (len(nd.children) - 1) * len(nd.bag) for nd in joins
        )
        saved.append(introduces_saved(td, ntd))
    assert saved == [0] * 10 + [12, 1]


def test_children_sharing_a_separator_join_there():
    # K4 on 0..3 with 4 and 5 hung on the edge 01 and 6 on the edge 23.
    # The bags of 4 and 5 meet the top bag in {0, 1}: each forgets its
    # vertex, the two join at {0, 1}, and 2 and 3 are introduced once above
    # that join instead of once in each branch
    G = Graph.from_edges(7, [*itertools.combinations(range(4), 2),
                             (0, 4), (1, 4), (0, 5), (1, 5), (2, 6), (3, 6)])
    bags = ({0, 1, 2, 3}, {0, 1, 4}, {0, 1, 5}, {2, 3, 6})
    td = TreeDecomposition(7, tuple(map(frozenset, bags)), frozenset({(0, 1), (0, 2), (0, 3)}))
    assert validate_td(G, td) is None
    ntd = make_nice(td)
    assert validate_nice(G, ntd) is None
    nodes = ntd.nodes
    joins = [i for i, nd in enumerate(nodes) if nd.kind == "join"]
    assert [(sorted(nodes[i].bag), len(nodes[i].children)) for i in joins] == [
        ([0, 1], 2), ([0, 1, 2, 3], 2)
    ]
    inner, top = joins
    assert [(nodes[c].kind, nodes[c].vertex) for c in nodes[inner].children] == [
        ("forget", 4), ("forget", 5)
    ]
    # the inner join's chain up to the top join: one introduce each of 2, 3
    chain, i = [], next(p for p, nd in enumerate(nodes) if inner in nd.children)
    while i != top:
        chain.append((nodes[i].kind, nodes[i].vertex))
        (i,) = (p for p, nd in enumerate(nodes) if i in nd.children)
    assert chain == [("introduce", 2), ("introduce", 3)]
    # 7 from the leaves, 2 above the inner join, 0 and 1 in 6's branch
    introduced = [nd.vertex for nd in nodes if nd.kind == "introduce"]
    assert len(introduced) == 13 == 7 + 1 * 2 + 1 * 4
    assert introduced.count(2) == introduced.count(3) == 2
    assert introduces_saved(td, ntd) == 2


def test_validate_nice_checks_join_arity():
    # ubp's top join, at the bag {3, 4, 5, 6}, has three children; nest the
    # last two of them in a new join
    G = gen_ubp(3, [1, 1, 1]).graph
    ntd = default_nice_decomposition(G)
    (j,) = (i for i, nd in enumerate(ntd.nodes) if nd.kind == "join" and nd.bag == {3, 4, 5, 6})
    bag, kids = ntd.nodes[j].bag, ntd.nodes[j].children
    assert len(kids) == 3
    new = len(ntd.nodes)

    def rebuilt(at_j, extra):
        """Node j a join of at_j, plus a new join of extra."""
        nodes = list(ntd.nodes)
        nodes[j] = NiceNode("join", bag, None, at_j)
        nodes.append(NiceNode("join", bag, None, extra))
        return NiceTreeDecomposition(ntd.n, tuple(nodes), ntd.root)

    assert validate_nice(G, ntd) is None
    # joins of two children are valid; a join of one is not
    assert validate_nice(G, rebuilt((kids[0], new), kids[1:])) is None
    assert validate_nice(G, rebuilt((new,), kids)) == (
        f"join node {j} needs two or more children"
    )


def test_grid_nice_counts():
    G = grid_graph(3)
    ntd = make_nice(decompose(G))
    assert validate_nice(G, ntd) is None
    kinds = [nd.kind for nd in ntd.nodes]
    assert kinds.count("forget") == 9
    joins = [nd for nd in ntd.nodes if nd.kind == "join"]
    assert kinds.count("introduce") == 9 + sum(
        (len(nd.children) - 1) * len(nd.bag) for nd in joins
    )
    assert ntd.height >= 9


def test_nice_height_and_postorder():
    G = cycle_graph(5)
    ntd = make_nice(decompose(G))
    post = ntd.postorder()
    assert post[-1] == ntd.root
    seen = set()
    for i in post:
        for c in ntd.nodes[i].children:
            assert c in seen
        seen.add(i)
    h = subtree_heights(ntd)
    assert h[ntd.root] == ntd.height


def _chain_heights(ntd, orders):
    """Heights of the decomposition whose joins are chains of binary joins,
    merging each join's children left-deep in each order orders(c) gives:
    the first two operands sit c - 1 levels below the top of the chain, the
    operand at position j >= 2 sits c - j levels below it."""
    h = {}
    for i in ntd.postorder():
        nd = ntd.nodes[i]
        hs = [h[c] for c in nd.children]
        if nd.kind != "join":
            h[i] = 1 + hs[0] if hs else 0
            continue
        c = len(hs)
        h[i] = max(
            max(c - max(pos, 1) + hs[j] for pos, j in enumerate(order))
            for order in orders(c)
        )
    return h[ntd.root]


def test_height_is_the_rounding_depth_of_every_merge_order():
    # the DP merges a join's c tables pairwise, rounding c - 1 times, in an
    # order it picks at run time; the height must cover the chain of binary
    # joins of every order.  Where the deepest child comes first or second
    # in child order it equals the old child-order chain's height, as on
    # suite graphs 0..39; ubp's top join has its deepest child (height 12)
    # last of three, and that child is also the smallest table at k = 9
    ubp = gen_ubp(3, [1, 1, 1]).graph
    for name, g in [("ubp", ubp)] + list(enumerate(suite_graphs()[:40])):
        ntd = default_nice_decomposition(g)
        every = _chain_heights(ntd, lambda c: itertools.permutations(range(c)))
        assert ntd.height == every == subtree_heights(ntd)[ntd.root], name
        child_order = _chain_heights(ntd, lambda c: [range(c)])
        assert child_order == (19 if name == "ubp" else ntd.height), name
    assert default_nice_decomposition(ubp).height == 20


def test_nice_decompositions_do_not_move():
    # one digest each over every node (kind, bag, vertex, children) and the
    # root of the DP's nice decompositions of ubp and the 4x4 grid: the bag
    # tree's walk order decides the node numbering and so every DP table.
    # No two children of one of the grid's bags share a separator smaller
    # than that bag, so no join of the grid is grouped
    digests = {}
    for name, g in (("ubp", gen_ubp(3, [1, 1, 1]).graph), ("grid4", grid_graph(4))):
        ntd = default_nice_decomposition(g)
        nodes = [(nd.kind, sorted(nd.bag), nd.vertex, nd.children) for nd in ntd.nodes]
        digests[name] = hashlib.sha256(repr(nodes + [ntd.root]).encode()).hexdigest()
    assert digests == {
        "ubp": "545df2d614c1f67615ca8c4967fde78981e71fc60e8ae11e3ecf07ae7ab74050",
        "grid4": "2a74937bb34f7cb36047cfd4ce740075ec595aa00b35c3c9cf5e8e6795dedf23",
    }
