from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import stc.dp
import stc.route
import stc.structural.fes
from conftest import complete_graph, cycle_graph, grid_graph, path_graph, subdivided
from stc import solve
from stc.errors import DisconnectedGraphError, GraphError
from stc.graph import DoubleWeightedGraph, Graph, congestion_report
from stc.oracle import EnumerationBudget, stc_exact
from stc.reductions import gen_grid

# three length-3 paths between hubs 0 and 1: n = 8, feedback edge number 2
THETA = Graph.from_edges(8, [(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1),
                             (0, 6), (6, 7), (7, 1)])
# a 6-cycle with one chord: {0, 3} leaves two paths, not a clique
CHORDED = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])


def k13_pendant() -> Graph:
    """K13 plus vertex 13 joined to clique vertices 0 and 1: {13} is a clique
    modulator, and the kernel keeps all 14 vertices."""
    edges = [(i, j) for i in range(13) for j in range(i + 1, 13)]
    return Graph.from_edges(14, edges + [(0, 13), (1, 13)])


def vi17() -> Graph:
    """Universal vertex 0, five triangles, and vertex 1 joined to 0 and to one
    vertex of each triangle: {0, 1} is a vertex-integrity modulator."""
    edges = [(0, 1)]
    for t in range(5):
        a, b, c = 2 + 3 * t, 3 + 3 * t, 4 + 3 * t
        edges += [(a, b), (a, c), (b, c), (0, a), (0, b), (0, c), (1, a)]
    return Graph.from_edges(17, edges)


def universal_vertex_stc(G: Graph) -> int:
    """stc of a graph with a universal vertex h: the largest degree besides
    h's.  The star at h meets it, and the tree edge above any u != h (rooted
    at h) carries at least deg(u)."""
    return sorted(G.degree(v) for v in range(G.n))[-2]


# the dtc, vi and dp kernels have more than ORACLE_CAP vertices
@pytest.mark.parametrize("G, kwargs, route", [
    (path_graph(5), {}, "trivial"),
    (cycle_graph(6), {}, "cycle"),
    (complete_graph(5), {}, "fes"),
    (THETA, {}, "fes"),
    (k13_pendant(), {"modulator": {13}}, "dtc"),
    (vi17(), {"modulator": {0, 1}}, "vi"),
    (grid_graph(3, 7), {}, "dp"),
    (CHORDED, {"modulator": {0, 3}}, "fes"),  # a small kernel ignores the modulator
])
def test_each_route(G, kwargs, route, monkeypatch):
    reductions = []
    for module in (stc.route, stc.structural.fes):
        def counted(H, reduce=module.reduce_graph):
            reductions.append(H)
            return reduce(H)

        monkeypatch.setattr(module, "reduce_graph", counted)
    alg, got, tree = solve(G, **kwargs)
    assert alg == route and reductions == [G]
    if route in ("dtc", "vi"):
        want = universal_vertex_stc(G)
    elif route == "dp":
        want = 3  # the 3x7 grid's stc
    else:
        want = stc_exact(G)[0]
    assert got == want == congestion_report(G, tree).max_congestion


def test_grid_4x5_takes_the_kernel_dp():
    G = grid_graph(4, 5)
    assert solve(G)[:2] == ("dp", 5) == solve(G, alg="dp")[:2]


def test_subdivided_grid_with_a_chord_takes_the_kernel_dp():
    # the 3x7 grid plus a chord between opposite corners has fes 13 and a
    # 19-vertex kernel; subdividing every edge 60 times leaves stc unchanged
    G = subdivided(Graph.from_edges(21, [*grid_graph(3, 7).edges, (0, 20)]), 60)
    assert G.n == 2001
    alg, got, tree = solve(G)
    assert alg == "dp" and got == 4 == congestion_report(G, tree).max_congestion


@pytest.mark.parametrize("n", [9, 10])
def test_cliques_stop_at_the_min_degree_bound(n):
    # K9 has 4.78M spanning trees; the enumeration's first tree, a star,
    # already meets deg = n - 1, so a budget of one measured tree suffices
    G = complete_graph(n)
    k, T = stc_exact(G, EnumerationBudget(max_trees=1))
    assert k == n - 1 == congestion_report(G, T).max_congestion
    # solve answers it from the bounds alone (lambda = n - 1 = the BFS star's
    # congestion), with no enumeration
    assert solve(G)[:2] == ("fes", n - 1)


def clique_plus_two(N: int) -> Graph:
    """K_N plus vertex N joined to clique vertices 0 and 1 and vertex N+1
    joined to 2 and 3: {N, N+1} is a clique modulator.  stc = N: lambda(0, 1)
    = N, and the star at 0 with N under 0 and N+1 under 2 meets it."""
    edges = [(i, j) for i in range(N) for j in range(i + 1, N)]
    return Graph.from_edges(N + 2, edges + [(0, N), (1, N), (2, N + 1), (3, N + 1)])


@pytest.mark.parametrize("N", [5, 6, 7, 8, 16])
@pytest.mark.parametrize("alg", ["auto", "dp", "dtc"])
def test_clique_plus_two_is_answered_by_its_bounds(N, alg, monkeypatch):
    # the treewidth DP here has width about N (N = 7 ran for minutes); the
    # lower and upper bounds meet, so no route runs it
    runs = []

    def no_dp(*args, **kwargs):
        runs.append(None)
        raise AssertionError("the DP ran although the bounds meet")

    monkeypatch.setattr(stc.dp, "_run_dp", no_dp)
    G = clique_plus_two(N)
    S = None if alg == "dp" else {N, N + 1}
    got_alg, got, tree = solve(G, modulator=S, alg=alg)
    assert runs == [] and got == N == congestion_report(G, tree).max_congestion
    assert got_alg == {"auto": "fes" if N + 2 <= 12 else "dp"}.get(alg, alg)


def test_dp_decision_contract():
    G = gen_grid(3)
    assert solve(G, k=2, alg="dp") == ("dp", None, None)
    alg, got, tree = solve(G, k=3, alg="dp")
    assert alg == "dp" and got <= 3 and congestion_report(G, tree).max_congestion == got
    # other routes optimize and leave the comparison with k to the caller
    assert solve(complete_graph(5), k=3)[1] == 4


TWO_TRIANGLES = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def test_dp_decision_checks_k_and_connectivity_before_the_bound():
    # the minimum degree 2 > k would otherwise "refute" both
    with pytest.raises(DisconnectedGraphError):
        solve(TWO_TRIANGLES, k=1, alg="dp")
    with pytest.raises(ValueError, match="k must be >= 1"):
        solve(cycle_graph(4), k=0, alg="dp")


@pytest.mark.parametrize("alg", ["dtc", "vi"])
def test_modulator_solvers_need_a_modulator(alg):
    with pytest.raises(ValueError, match="modulator"):
        solve(CHORDED, alg=alg)


@pytest.mark.parametrize("alg", stc.route.ALGORITHMS)
def test_modulator_out_of_range_rejected(alg):
    G = gen_grid(4)
    for S in ({G.n}, {999}, {0, -1}):
        with pytest.raises(GraphError, match="modulator vertex out of range"):
            solve(G, modulator=S, alg=alg)


def test_weighted_input_only_with_oracle():
    base = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    Gw = DoubleWeightedGraph.single(base, {e: 2 for e in base.edges})
    for alg in ("auto", "dp"):
        with pytest.raises(GraphError, match="oracle"):
            solve(Gw, alg=alg)
    alg, got, tree = solve(Gw, alg="oracle")
    assert (alg, got) == ("oracle", 4) and tree.host == base


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError, match="unknown algorithm"):
        solve(path_graph(3), alg="cycle")


README = Path(stc.__file__).resolve().parents[2] / "README.md"


def test_every_exported_name_is_documented():
    readme = README.read_text()
    missing = [name for name in stc.__all__ if not re.search(rf"\b{name}\b", readme)]
    assert not missing


def test_every_documented_library_name_is_exported():
    # the backticked names that open a bullet of README's "## Library"
    # section, e.g. "- `solve_stc_tw(G)` / `solve_exact_tw(G, k)`: ..."
    library = README.read_text().split("\n## Library\n")[1].split("\n## ")[0]
    names = [
        re.match(r"\w+", item).group()
        for lead in re.findall(r"^- ((?:`[^`]+`(?:,\s+|\s+/\s+)?)+)", library, re.M)
        for item in re.findall(r"`([^`]+)`", lead)
    ]
    assert len(names) > 20
    assert [name for name in names if not hasattr(stc, name)] == []


def _unused_imports(path: Path) -> list[str]:
    """Names an import binds in the file that no other line reads; the
    names in a module's __all__ count as read."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "stc").rglob("*.py")) + sorted((root / "tests").glob("*.py"))
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused


def test_every_private_helper_is_used_by_the_library():
    # a private top-level function or class of src/stc that no line of
    # src/stc outside its own definition names is a helper only tests use
    files = sorted((Path(__file__).resolve().parents[1] / "src" / "stc").rglob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    uses = [(path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    helpers = [(path, node) for path, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    unused = [f"{path.name}:{d.lineno} {d.name}" for path, d in helpers
              if not any(name == d.name and not (p == path and d.lineno <= line <= d.end_lineno)
                         for p, line, name in uses)]
    assert len(helpers) > 70 and not unused


def test_one_function_loops_over_k():
    # every search over k goes through one driver: a for statement whose
    # target is k, or a tuple holding k, sits in one function of src/stc
    files = sorted((Path(__file__).resolve().parents[1] / "src" / "stc").rglob("*.py"))
    loops = []
    for path in files:
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            todo = list(func.body)  # the function's own statements, not nested ones'
            while todo:
                node = todo.pop()
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                if isinstance(node, ast.For) and any(
                        isinstance(t, ast.Name) and t.id == "k" for t in ast.walk(node.target)):
                    loops.append(f"{path.name}:{func.name}")
                todo.extend(ast.iter_child_nodes(node))
    assert loops == ["dp.py:_first_k"]
