from __future__ import annotations

import inspect
import json
import random
import sys

import pytest

from conftest import complete_graph, cycle_graph, path_graph
from stc import formats
from stc.cli import main
from stc.graph import DoubleWeightedGraph, Graph
from stc.oracle import stc_exact
from stc.reductions import gen_grid
from stc.structural import solve_fes


def write_gr(tmp_path, G, name="g.gr"):
    p = tmp_path / name
    p.write_text(formats.write_gr(G))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- solve --------------------------------------------------------------------


def test_solve_tree_is_trivial(tmp_path, capsys):
    path = write_gr(tmp_path, path_graph(6))
    code, out, _ = run(capsys, "solve", path)
    sol = formats.parse_solution(out)
    assert code == 0 and sol["algorithm"] == "trivial" and sol["k"] == 1


def test_solve_cycle_shortcut(tmp_path, capsys):
    path = write_gr(tmp_path, cycle_graph(8))
    code, out, _ = run(capsys, "solve", path)
    sol = formats.parse_solution(out)
    assert code == 0 and sol["algorithm"] == "cycle" and sol["k"] == 2


def test_solve_dp_decision_yes_and_no(tmp_path, capsys):
    path = write_gr(tmp_path, gen_grid(3))
    code, out, _ = run(capsys, "solve", path, "--alg", "dp", "--k", "3")
    sol = formats.parse_solution(out)
    assert code == 0 and sol["feasible"] and sol["k"] <= 3
    code, out, _ = run(capsys, "solve", path, "--alg", "dp", "--k", "2")
    sol = json.loads(out)
    assert code == 1 and sol["feasible"] is False


def test_solve_algorithms_agree(tmp_path, capsys):
    G = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    path = write_gr(tmp_path, G)
    ks = {}
    for alg in ("oracle", "dp", "fes"):
        code, out, _ = run(capsys, "solve", path, "--alg", alg)
        assert code == 0
        ks[alg] = formats.parse_solution(out)["k"]
    assert len(set(ks.values())) == 1


def test_solve_writes_verifiable_file(tmp_path, capsys):
    G = gen_grid(3)
    path = write_gr(tmp_path, G)
    solpath = str(tmp_path / "sol.json")
    code, out, _ = run(capsys, "solve", path, "-o", solpath)
    assert code == 0 and solpath in out
    sol = formats.parse_solution((tmp_path / "sol.json").read_text())
    assert formats.verify_solution(G, sol) is None
    assert sol["k"] == 3


def test_solve_auto_routes_to_dtc(tmp_path, capsys):
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5)]
    path = write_gr(tmp_path, Graph.from_edges(6, edges))
    mod = tmp_path / "mod.txt"
    mod.write_text("c pendant vertex\n6\n")
    code, out, _ = run(
        capsys, "solve", path, "--modulator", str(mod),
        "--oracle-cap", "3", "--fes-cap", "1",
    )
    sol = formats.parse_solution(out)
    assert code == 0 and sol["algorithm"] == "dtc" and sol["k"] == 4


def test_solve_auto_routes_to_vi(tmp_path, capsys):
    G = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    path = write_gr(tmp_path, G)
    mod = tmp_path / "mod.txt"
    mod.write_text("1 4\n")
    code, out, _ = run(
        capsys, "solve", path, "--modulator", str(mod),
        "--oracle-cap", "3", "--fes-cap", "1",
    )
    sol = formats.parse_solution(out)
    assert code == 0 and sol["algorithm"] == "vi"
    code2, out2, _ = run(capsys, "solve", path, "--alg", "oracle")
    assert sol["k"] == formats.parse_solution(out2)["k"]


def test_solve_modulator_flag_required(tmp_path, capsys):
    path = write_gr(tmp_path, gen_grid(3))
    code, _, err = run(capsys, "solve", path, "--alg", "vi")
    assert code == 2 and "--modulator" in err


def test_solve_rejects_weighted_input(tmp_path, capsys):
    base = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    Gw = DoubleWeightedGraph.single(base, {e: 2 for e in base.edges})
    path = write_gr(tmp_path, Gw, "w.gr")
    code, _, err = run(capsys, "solve", path)
    assert code == 2 and "oracle" in err


def test_oracle_accepts_weighted_input(tmp_path, capsys):
    base = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    Gw = DoubleWeightedGraph.single(base, {e: 2 for e in base.edges})
    path = write_gr(tmp_path, Gw, "w.gr")
    code, out, _ = run(capsys, "oracle", path)
    assert code == 0 and formats.parse_solution(out)["k"] == 4
    code, out2, _ = run(capsys, "solve", path, "--alg", "oracle")
    assert code == 0 and out2 == out


def test_long_cycle_needs_no_deep_recursion(tmp_path, capsys):
    # the oracle's bridge search once recursed once per vertex of a cycle
    path = write_gr(tmp_path, cycle_graph(400))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 150)
    try:
        results = [run(capsys, "oracle", path), run(capsys, "solve", path, "--alg", "fes")]
    finally:
        sys.setrecursionlimit(old)
    for code, out, _ in results:
        assert code == 0 and formats.parse_solution(out)["k"] == 2


def test_fes_answers_long_cycle_with_pendant_paths(tmp_path, capsys, monkeypatch):
    import stc.structural.fes

    n = 3000
    edges = [(i, (i + 1) % n) for i in range(n)]
    for anchor in range(0, n, 500):  # a 3-edge path hangs off every 500th vertex
        edges += [(anchor, len(edges)), (len(edges), len(edges) + 1),
                  (len(edges) + 1, len(edges) + 2)]
    G = Graph.from_edges(n + 18, edges)

    def no_enumeration(*args):
        raise AssertionError("a cycle kernel needs no enumeration")

    monkeypatch.setattr(stc.structural.fes, "stc_exact", no_enumeration)
    k, T = solve_fes(G)
    assert k == 2 and T.edges == G.edges - {(n - 2, n - 1)}
    code, out, _ = run(capsys, "solve", write_gr(tmp_path, G), "--alg", "fes")
    sol = formats.parse_solution(out)
    assert code == 0 and sol["algorithm"] == "fes" and sol["k"] == 2


def test_oracle_decision_no(tmp_path, capsys):
    path = write_gr(tmp_path, complete_graph(5))
    code, out, _ = run(capsys, "oracle", path, "--k", "3")
    doc = json.loads(out)
    assert code == 1 and doc["feasible"] is False and doc["stc"] == 4


# -- budgets ------------------------------------------------------------------


def test_budget_flag_exit_code(tmp_path, capsys):
    path = write_gr(tmp_path, gen_grid(3))
    code, _, err = run(capsys, "solve", path, "--alg", "oracle", "--max-trees", "5")
    assert code == 3 and "tree" in err


def test_budget_env_var(tmp_path, capsys, monkeypatch):
    path = write_gr(tmp_path, gen_grid(3))
    monkeypatch.setenv("STC_MAX_TREES", "5")
    code, _, _ = run(capsys, "solve", path, "--alg", "oracle")
    assert code == 3
    monkeypatch.setenv("STC_MAX_TREES", "junk")
    code, _, err = run(capsys, "solve", path, "--alg", "oracle")
    assert code == 2 and "STC_MAX_TREES" in err
    # the budget is parsed on every route, also where nothing is enumerated
    code, _, err = run(capsys, "solve", path, "--alg", "dp")
    assert code == 2 and "STC_MAX_TREES" in err


# -- approx -------------------------------------------------------------------


def test_approx_within_factor(tmp_path, capsys):
    path = write_gr(tmp_path, gen_grid(3))
    code, out, _ = run(capsys, "approx", path, "--eps", "0.5")
    sol = formats.parse_solution(out)
    assert code == 0
    assert sol["certified"] is False and sol["eps"] == "0.5"
    assert sol["k"] <= 5  # ceil(1.5 * 3)


def test_approx_tiny_eps_returns_stc(tmp_path, capsys):
    path = write_gr(tmp_path, cycle_graph(4))
    code, out, _ = run(capsys, "approx", path, "--eps", "1e-9")
    assert code == 0 and formats.parse_solution(out)["k"] == 2


def test_approx_requires_positive_eps(tmp_path, capsys):
    path = write_gr(tmp_path, gen_grid(3))
    code, _, err = run(capsys, "approx", path, "--eps", "-1")
    assert code == 2
    code, _, err = run(capsys, "approx", path, "--eps", "zero")
    assert code == 2


# -- eval ---------------------------------------------------------------------


def test_eval_roundtrip_and_tamper(tmp_path, capsys):
    G = gen_grid(3)
    path = write_gr(tmp_path, G)
    solpath = tmp_path / "sol.json"
    run(capsys, "solve", path, "-o", str(solpath))
    code, out, _ = run(capsys, "eval", path, "--tree", str(solpath))
    assert code == 0 and "ok" in out
    doc = json.loads(solpath.read_text())
    doc["k"] += 1
    solpath.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "eval", path, "--tree", str(solpath), "--json")
    res = json.loads(out)
    assert code == 1 and res["ok"] is False and "re-evaluates" in res["problem"]


def _subdivided_petersen(rng, per_edge: int, pendants: int) -> tuple[Graph, Graph]:
    """Petersen with every edge subdivided and random pendant trees hung on."""
    core = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    edges, n = [], core.n
    for u, v in core.sorted_edges():
        path = [u] + list(range(n, n + per_edge)) + [v]
        n += per_edge
        edges += zip(path, path[1:])
    for _ in range(pendants):
        edges.append((rng.randrange(n), n))
        n += 1
    rng.shuffle(edges)
    return core, Graph.from_edges(n, edges)


def test_solve_eval_roundtrip_at_scale_measures_and_validates_once(
    tmp_path, capsys, monkeypatch
):
    import stc.graph as graph

    core, G = _subdivided_petersen(random.Random(5), 200, 2000)
    assert G.n == 5010
    path = write_gr(tmp_path, G)
    solpath = str(tmp_path / "sol.json")
    calls = {"validate": 0, "measure": 0}
    validate, measure = graph.spanning_tree_violation, graph._edge_loads

    def counted_validate(H, edges):
        calls["validate"] += H.n == G.n
        return validate(H, edges)

    def counted_measure(H, *args):
        calls["measure"] += H.n == G.n
        return measure(H, *args)

    monkeypatch.setattr(graph, "spanning_tree_violation", counted_validate)
    monkeypatch.setattr(graph, "_edge_loads", counted_measure)
    code, out, _ = run(capsys, "solve", path, "-o", solpath, "--json")
    assert code == 0 and calls == {"validate": 1, "measure": 1}
    doc = json.loads(out)
    assert doc["algorithm"] == "fes" and doc["output"] == solpath
    assert doc["k"] == stc_exact(core)[0]
    sol = formats.parse_solution((tmp_path / "sol.json").read_text())
    assert sol == {k: v for k, v in doc.items() if k != "output"}
    calls.update(validate=0, measure=0)
    code, out, _ = run(capsys, "eval", path, "--tree", solpath, "--json")
    assert code == 0 and json.loads(out) == {"ok": True, "problem": None}
    assert calls == {"validate": 1, "measure": 1}


def test_edge_line_order_changes_neither_adjacency_order_nor_the_dp_answer(
    tmp_path, capsys
):
    # the DP's tree depends on the order it meets neighbours in; a .gr file
    # whose edge lines come in another order must give the same graph
    head, *lines = formats.write_gr(gen_grid(4)).splitlines()
    first = None
    for seed in range(8):
        random.Random(seed).shuffle(lines)
        path = tmp_path / "g.gr"
        path.write_text("\n".join([head] + lines) + "\n")
        G = formats.parse_gr(path.read_text())
        got = [list(G.neighbors(v)) for v in range(G.n)], run(
            capsys, "solve", str(path), "--alg", "dp", "--json")
        assert got[1][0] == 0
        if first is None:
            first = got
        assert got == first


# -- gen ----------------------------------------------------------------------


def test_gen_grid(tmp_path, capsys):
    prefix = str(tmp_path / "grid")
    code, out, _ = run(capsys, "gen", "grid", "--n", "3", "-o", prefix, "--json")
    note = json.loads(out)
    assert code == 0 and note["n"] == 9 and note["k"] == 3
    G = formats.parse_gr((tmp_path / "grid.gr").read_text())
    assert G.n == 9 and G.m == 12
    side = json.loads((tmp_path / "grid.json").read_text())
    assert side["annotations"]["corners"] == [0, 2, 6, 8]


def test_gen_ubp(tmp_path, capsys):
    prefix = str(tmp_path / "ubp")
    code, _, _ = run(capsys, "gen", "ubp", "--t", "3",
                     "--items", "1,1,1,1,1,1", "-o", prefix)
    assert code == 0
    side = json.loads((tmp_path / "ubp.json").read_text())
    assert side["k"] == 20 and side["provenance"]["B"] == 2
    G = formats.parse_gr((tmp_path / "ubp.gr").read_text())
    assert G.n == 10 + 3 * 11


def test_gen_3part(tmp_path, capsys):
    prefix = str(tmp_path / "p3")
    code, _, _ = run(capsys, "gen", "3part", "--bin", "12",
                     "--items", ",".join(["4"] * 9), "-o", prefix)
    assert code == 0
    side = json.loads((tmp_path / "p3.json").read_text())
    assert side["k"] == 144 and side["provenance"]["M"] == 96
    assert formats.parse_gr((tmp_path / "p3.gr").read_text()).n > 100


def test_gen_bsat(tmp_path, capsys):
    prefix = str(tmp_path / "sat")
    code, _, _ = run(capsys, "gen", "bsat", "-o", prefix,
                     "--clauses", "1,-2,3;1,2,-3;-1,-2,3;-1,2,-3")
    assert code == 0
    side = json.loads((tmp_path / "sat.json").read_text())
    assert side["k"] == 11
    G = formats.parse_gr((tmp_path / "sat.gr").read_text())
    assert (G.n, G.m) == (1592, 2776)


def test_gen_needs_output_and_params(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "grid", "--n", "3")
    assert code == 2 and "-o" in err
    code, _, err = run(capsys, "gen", "ubp", "-o", str(tmp_path / "x"))
    assert code == 2 and "--t" in err
    code, _, err = run(capsys, "gen", "bsat", "-o", str(tmp_path / "x"),
                       "--clauses", "1,-2,3;1,2,-3;-1,-2,3")
    assert code == 2  # occurrence counts off


# -- decompose / reduce -------------------------------------------------------


def test_decompose_output_validates(tmp_path, capsys):
    G = gen_grid(3)
    path = write_gr(tmp_path, G)
    tdpath = str(tmp_path / "out.td")
    code, out, _ = run(capsys, "decompose", path, "-o", tdpath, "--json")
    note = json.loads(out)
    assert code == 0 and note["width"] >= 2
    code, out, _ = run(capsys, "verify", path, tdpath)
    assert code == 0


def test_decompose_stdout_parses(tmp_path, capsys):
    path = write_gr(tmp_path, cycle_graph(5))
    code, out, _ = run(capsys, "decompose", path)
    td = formats.parse_td(out)
    assert code == 0 and td.width >= 1


def test_reduce_outputs(tmp_path, capsys):
    path = write_gr(tmp_path, gen_grid(3))
    prefix = str(tmp_path / "red")
    code, out, _ = run(capsys, "reduce", path, "-o", prefix, "--json")
    note = json.loads(out)
    assert code == 0 and note["n"] == 5 and note["m"] == 8
    trace = json.loads((tmp_path / "red.trace.json").read_text())
    assert trace["kind"] == "kernel" and trace["fes"] == 4
    H = formats.parse_gr((tmp_path / "red.gr").read_text())
    assert (H.n, H.m) == (5, 8)


# -- verify -------------------------------------------------------------------


def test_verify_catches_bad_solution(tmp_path, capsys):
    G = gen_grid(3)
    path = write_gr(tmp_path, G)
    solpath = tmp_path / "sol.json"
    run(capsys, "solve", path, "-o", str(solpath))
    doc = json.loads(solpath.read_text())
    doc["edges"][0] = [1, 9]  # not a host edge
    solpath.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", path, str(solpath))
    assert code == 1


def test_verify_without_graph_still_parses(tmp_path, capsys):
    G = gen_grid(3)
    path = write_gr(tmp_path, G)
    solpath = tmp_path / "sol.json"
    run(capsys, "solve", path, "-o", str(solpath))
    code, out, _ = run(capsys, "verify", str(solpath))
    assert code == 0 and "parsed; no .gr" in out


def test_verify_rejects_unknown_extension(tmp_path, capsys):
    other = tmp_path / "notes.txt"
    other.write_text("hello\n")
    code, _, err = run(capsys, "verify", str(other))
    assert code == 2 and "extension" in err


# -- errors and plumbing ------------------------------------------------------


def test_usage_errors_exit_two(tmp_path, capsys):
    path = write_gr(tmp_path, gen_grid(3))
    assert run(capsys, "solve", path, "--k", "0")[0] == 2
    assert run(capsys, "solve", str(tmp_path / "missing.gr"))[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2
    big = write_gr(tmp_path, gen_grid(4), "grid4.gr")
    assert run(capsys, "decompose", big, "--mode", "exact_small")[0] == 2


def test_json_error_shape(tmp_path, capsys):
    code, _, err = run(capsys, "solve", str(tmp_path / "missing.gr"), "--json")
    doc = json.loads(err)
    assert code == 2 and doc["exit"] == 2 and "missing.gr" in doc["error"]


def test_malformed_gr_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p stc 3 2\n1 2\n1 5\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2 and "3" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "solve", "--help")[0] == 0


def test_threads_and_seed_flags_are_gone(tmp_path, capsys):
    path = write_gr(tmp_path, gen_grid(3))
    for flag in ("--threads", "--seed"):
        code, _, err = run(capsys, "solve", path, flag, "8")
        assert code == 2 and flag in err


def test_binary_input_exits_two(tmp_path, capsys):
    binary = tmp_path / "binary.gr"
    binary.write_bytes(bytes(range(256)))
    code, _, err = run(capsys, "solve", str(binary))
    assert code == 2 and "UTF-8" in err


def test_internal_value_error_propagates(tmp_path, capsys, monkeypatch):
    import stc.route

    def broken(G, budget=None):
        raise ValueError("solver fault")

    monkeypatch.setattr(stc.route, "stc_exact", broken)
    path = write_gr(tmp_path, complete_graph(5))
    with pytest.raises(ValueError, match="solver fault"):
        main(["solve", path])
