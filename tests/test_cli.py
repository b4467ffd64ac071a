from __future__ import annotations

import argparse
import ast
import gc
import inspect
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stc
from conftest import (complete_graph, cycle_graph, grid_graph, path_graph, subdivided,
                      suite_graphs)
from stc import formats
from stc.cli import _ArgError, _parse, _parser, main
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


def test_solve_dp_decision_refuses_a_disconnected_graph(tmp_path, capsys):
    # connectivity is checked before the lower bound, whose minimum degree
    # 2 > k = 1 would otherwise refute two disjoint triangles
    G = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    code, out, err = run(capsys, "solve", write_gr(tmp_path, G), "--alg", "dp", "--k", "1")
    assert code == 2 and out == "" and "not connected" in err


def test_solve_algorithms_agree(tmp_path, capsys):
    G = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    path = write_gr(tmp_path, G)
    ks = {}
    for alg in ("oracle", "dp", "auto"):
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


def _dtc_request(tmp_path) -> tuple[str, ...]:
    # K13 plus a 14th vertex joined to two clique vertices: a 14-vertex kernel
    edges = [(i, j) for i in range(13) for j in range(i + 1, 13)] + [(0, 13), (1, 13)]
    path = write_gr(tmp_path, Graph.from_edges(14, edges), "dtc.gr")
    mod = tmp_path / "dtc.txt"
    mod.write_text("c the vertex outside the clique\n14\n")
    return "solve", path, "--modulator", str(mod)


def _vi_request(tmp_path) -> tuple[str, ...]:
    # universal vertex 0, five triangles, and vertex 1 joined to 0 and to one
    # vertex of each triangle: G minus the modulator {0, 1} is five triangles
    edges = [(0, 1)]
    for t in range(5):
        a, b, c = 2 + 3 * t, 3 + 3 * t, 4 + 3 * t
        edges += [(a, b), (a, c), (b, c), (0, a), (0, b), (0, c), (1, a)]
    path = write_gr(tmp_path, Graph.from_edges(17, edges), "vi.gr")
    mod = tmp_path / "vi.txt"
    mod.write_text("1 2\n")
    return "solve", path, "--modulator", str(mod)


def test_solve_auto_routes_to_dtc(tmp_path, capsys):
    code, out, _ = run(capsys, *_dtc_request(tmp_path))
    sol = formats.parse_solution(out)
    # clique vertex 0 is universal, so stc is the largest other degree, 13
    assert code == 0 and sol["algorithm"] == "dtc" and sol["k"] == 13


def test_solve_auto_routes_to_vi(tmp_path, capsys):
    code, out, _ = run(capsys, *_vi_request(tmp_path))
    sol = formats.parse_solution(out)
    # stc is the largest degree besides the universal vertex's: vertex 1's 6
    assert code == 0 and sol["algorithm"] == "vi" and sol["k"] == 6


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
        results = [run(capsys, "oracle", path), run(capsys, "solve", path)]
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

    def no_search(*args):
        raise AssertionError("a cycle kernel needs no search")

    monkeypatch.setattr(stc.structural.fes, "search_k", no_search)
    k, T = solve_fes(G)
    assert k == 2 and T.edges == G.edges - {(n - 2, n - 1)}
    code, out, _ = run(capsys, "solve", write_gr(tmp_path, G))
    sol = formats.parse_solution(out)
    assert code == 0 and sol["algorithm"] == "cycle" and sol["k"] == 2


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


def test_oracle_caps_come_from_flags_only(tmp_path, capsys, monkeypatch):
    path = write_gr(tmp_path, gen_grid(3))
    monkeypatch.setenv("STC_MAX_TREES", "junk")
    monkeypatch.setenv("STC_MAX_MILLIS", "0")
    assert run(capsys, "solve", path, "--alg", "dp")[0] == 0
    assert run(capsys, "solve", path, "--alg", "oracle")[0] == 0
    assert run(capsys, "solve", path, "--alg", "oracle", "--max-trees", "5")[0] == 3


def test_modulator_refused_where_no_route_uses_it(tmp_path, capsys):
    path = write_gr(tmp_path, gen_grid(3))
    mod = tmp_path / "mod.txt"
    mod.write_text("1\n")
    for alg in ("dp", "oracle"):
        code, _, err = run(capsys, "solve", path, "--alg", alg, "--modulator", str(mod))
        assert code == 2 and f"--alg {alg} takes no --modulator" in err


def test_modulator_file_errors(tmp_path, capsys):
    path = write_gr(tmp_path, gen_grid(3))
    mod = tmp_path / "mod.txt"
    for text, message in [
        ("c comment\n\n1 x\n", f"{mod} line 3: not a vertex id: 'x'"),
        ("1\n  \n10\n", f"{mod} line 3: vertex 10 out of range 1..9"),
        ("1 2\nc 5\n2\n", f"{mod}: repeated modulator vertex"),
    ]:
        mod.write_text(text)
        code, _, err = run(capsys, "solve", path, "--alg", "vi", "--modulator", str(mod))
        assert (code, err) == (2, f"error: {message}\n")


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
    import hashlib

    import stc.graph as graph

    core, G = _subdivided_petersen(random.Random(5), 200, 2000)
    assert G.n == 5010
    monkeypatch.chdir(tmp_path)  # a relative -o path keeps stdout free of tmp_path
    path = write_gr(tmp_path, G)
    calls = {"validate": 0, "measure": 0}
    validate, measure, parse = graph._spanning_walk, graph._edge_loads, formats.parse_gr
    hosts = []

    def counted_validate(H, edges):
        calls["validate"] += H.n == G.n
        return validate(H, edges)

    def counted_measure(H, *args):
        calls["measure"] += H.n == G.n
        return measure(H, *args)

    def kept_parse(text):
        hosts.append(parse(text))
        return hosts[-1]

    monkeypatch.setattr(graph, "_spanning_walk", counted_validate)
    monkeypatch.setattr(graph, "_edge_loads", counted_measure)
    monkeypatch.setattr(formats, "parse_gr", kept_parse)
    code, out, _ = run(capsys, "solve", path, "-o", "sol.json", "--json")
    assert code == 0 and calls == {"validate": 1, "measure": 1}
    assert "_adj" not in vars(hosts[-1])  # the kernelization reads neighbour lists
    doc = json.loads(out)
    assert doc["algorithm"] == "fes" and doc["output"] == "sol.json"
    assert doc["k"] == stc_exact(core)[0]
    sol_bytes = (tmp_path / "sol.json").read_bytes()
    sol = formats.parse_solution(sol_bytes.decode())
    assert sol == {k: v for k, v in doc.items() if k != "output"}
    # the tree follows the edge and adjacency order, so these bytes guard it
    assert hashlib.sha256(sol_bytes).hexdigest() == (
        "ecfa8adfdc1536f8ab1dbbc9478b413c21862c493a9c4985d196ee78aa804ec4")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "13e04c93ac8864b804f71e41e408d2fd2ff04f0ab25919c35784da454bc7217c")
    calls.update(validate=0, measure=0)
    code, out, _ = run(capsys, "eval", path, "--tree", "sol.json", "--json")
    assert code == 0 and json.loads(out) == {"ok": True, "problem": None}
    assert calls == {"validate": 1, "measure": 1}
    assert "_adj" not in vars(hosts[-1])  # eval never builds the host's adjacency


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
        # both parsers insert the edges as Graph.from_edges would, in line order
        ref = Graph.from_edges(G.n, [[int(t) - 1 for t in line.split()] for line in lines])
        Gw = formats.parse_gr("\n".join(
            [head.replace("stc", "stcw")] + [f"{line} 2 1" for line in lines]))
        assert list(G.edges) == list(Gw.base.edges) == list(ref.edges)
        order = [list(G.neighbors(v)) for v in range(G.n)]
        assert [list(Gw.base.neighbors(v)) for v in range(G.n)] == order
        got = order, run(capsys, "solve", str(path), "--alg", "dp", "--json")
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


def test_reduce_files_do_not_move(tmp_path, capsys):
    # the kernel's edges and the trace's section order follow the adjacency
    # sets the kernelization rebuilds, so these bytes guard them
    import hashlib

    hosts = {"scale": _subdivided_petersen(random.Random(5), 200, 2000)[1],
             "cycle": cycle_graph(1500)}
    digests = {}
    for name, G in hosts.items():
        prefix = str(tmp_path / name)
        code, _, _ = run(capsys, "reduce", write_gr(tmp_path, G, name + ".gr"), "-o", prefix)
        assert code == 0
        digests[name] = [hashlib.sha256((tmp_path / (name + ext)).read_bytes()).hexdigest()
                         for ext in (".gr", ".trace.json")]
    assert digests == {
        "scale": ["6c4b246f71bbffac0700559a61a382b162c764381c39aaa49ef97911932fb4cd",
                  "561f6b6b4032e4182ebfb570b85c48540c2acd368490af27d02abaecddc05c0f"],
        "cycle": ["e05d10c4ef91dedd5a17f4039d10471c79c193eb79c715a1879b8cb92b2f0485",
                  "af5a906ddba7c8e7cee4628a6ee98a3b9f9d137af33f5b2db5864405b64a82f8"],
    }


def test_reduce_and_solve_long_paths_cycles_and_disconnected_inputs(tmp_path, capsys):
    n = 100_000
    inputs = {
        "path": f"p stc {n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(1, n)),
        "cycle": f"p stc {n} {n}\n" + "".join(f"{i} {i % n + 1}\n" for i in range(1, n + 1)),
        "two cycles": "p stc 7 7\n1 2\n2 3\n1 3\n4 5\n5 6\n6 7\n4 7\n",
        "tree + isolated": "p stc 5 3\n1 2\n2 3\n2 4\n",
        "one vertex": "p stc 1 0\n",
    }
    # (trace kind, kernel vertices, route, stc, tree edges)
    answers = {"path": ("tree", 1, "trivial", 1, n - 1), "cycle": ("cycle", n, "cycle", 2, n - 1),
               "one vertex": ("tree", 1, "trivial", 0, 0)}
    for name, text in inputs.items():
        path = tmp_path / f"{name}.gr"
        path.write_text(text)
        prefix = str(tmp_path / f"{name} kernel")
        reduced = run(capsys, "reduce", str(path), "-o", prefix)
        solved = run(capsys, "solve", str(path))
        if name not in answers:
            error = (2, "", "error: input graph is not connected\n")
            assert reduced == solved == error, name
            continue
        assert reduced[0] == 0 and solved[0] == 0, name
        trace = json.loads((tmp_path / f"{name} kernel.trace.json").read_text())
        sol = formats.parse_solution(solved[1])
        assert (trace["kind"], trace["kernel"]["n"], sol["algorithm"], sol["k"],
                len(sol["edges"])) == answers[name], name


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


def test_eval_and_verify_name_a_bad_tree_edge_in_file_ids(tmp_path, capsys):
    cases = [(complete_graph(4), [[1, 2], [2, 3], [1, 3]], "edge (2, 3) closes a cycle"),
             (path_graph(3), [[1, 2], [2, 2]], "edge (2, 2) not in the graph")]
    for G, edges, problem in cases:
        path = write_gr(tmp_path, G)
        solpath = tmp_path / "sol.json"
        solpath.write_text(json.dumps({"feasible": True, "k": 1, "algorithm": "x",
                                       "certified": True, "edges": edges,
                                       "per_edge_congestion": {}}))
        code, out, _ = run(capsys, "eval", path, "--tree", str(solpath))
        assert (code, out) == (1, f"verification failed: {problem}\n")
        code, out, _ = run(capsys, "verify", path, str(solpath), "--json")
        assert code == 1 and json.loads(out)["files"][1]["problem"] == problem


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
    code, _, err = run(capsys, "decompose", path, "--mode", "auto")
    assert code == 2 and "--mode" in err


def test_json_error_shape(tmp_path, capsys):
    code, _, err = run(capsys, "solve", str(tmp_path / "missing.gr"), "--json")
    doc = json.loads(err)
    assert code == 2 and doc["exit"] == 2 and "missing.gr" in doc["error"]


def test_usage_errors_are_json_under_json_and_argparse_text_otherwise(tmp_path, capsys):
    path = write_gr(tmp_path, gen_grid(3))
    for argv in (["solve", path, "--alg", "nonsense"], ["solve"],
                 ["solve", path, "--threads", "2"], ["approx", path]):
        with pytest.raises(_ArgError) as raised:
            _parse(argv)
        parser, msg = raised.value.args
        code, out, err = run(capsys, *argv, "--json")
        assert (code, out, json.loads(err)) == (2, "", {"error": msg, "exit": 2})
        # plain mode prints exactly what ArgumentParser.error prints
        with pytest.raises(SystemExit) as stopped:
            argparse.ArgumentParser.error(parser, msg)
        expected = capsys.readouterr().err
        assert stopped.value.code == 2 and expected.startswith("usage: ")
        assert run(capsys, *argv) == (2, "", expected)
    assert run(capsys, "solve", "-h", "--json")[:2] == (0, _parser().commands["solve"].format_help())


def test_malformed_gr_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p stc 3 2\n1 2\n1 5\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2 and "3" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "solve", "--help")[0] == 0


def _parse_outcome(capsys, parse, argv):
    """What one parse of argv gives: its namespace, help exit or usage error,
    with what it printed."""
    try:
        got = ("args", vars(parse(list(argv))))
    except SystemExit as exc:
        got = ("exit", exc.code)
    except _ArgError as exc:
        parser, msg = exc.args
        got = ("error", parser.prog, msg)
    out = capsys.readouterr()
    return got, out.out, out.err


_PARSE_CASES = [
    # every subcommand
    ["solve", "G.gr"],
    ["solve", "G.gr", "--alg", "dp", "--k", "3", "--modulator", "M", "--max-trees", "9",
     "--max-millis", "5", "--json", "-o", "s.json"],
    ["approx", "G.gr", "--eps", "0.5"],
    ["oracle", "G.gr"],
    ["oracle", "G.gr", "--k", "2", "--json"],
    ["eval", "G.gr", "--tree", "s.json"],
    ["gen", "grid", "--n", "3", "-o", "p"],
    ["gen", "ubp", "--t", "3", "--items", "1,1,1", "--family", "cliques", "-o", "p"],
    ["decompose", "G.gr"],
    ["reduce", "G.gr", "-o", "k", "--json"],
    ["verify", "G.gr", "G.td", "s.json"],
    # help at both levels, and no argv
    [], ["-h"], ["--help"], ["solve", "-h"], ["gen", "--help"], ["verify", "a", "-h"],
    # an unknown command, an option before the command
    ["bogus"], ["bogus", "G.gr"], ["Solve", "G.gr"], ["sol", "G.gr"],
    ["--json", "solve", "G.gr"], ["-o", "x", "solve", "G.gr"],
    # leftovers, unrecognized tokens, bad values, missing arguments
    ["solve", "G.gr", "extra"], ["solve", "G.gr", "--threads", "2"], ["solve", "G.gr", "-x"],
    ["solve", "G.gr", "--alg", "nonsense"], ["solve", "G.gr", "--k", "x"],
    ["solve"], ["solve", "G.gr", "--k"], ["approx", "G.gr"], ["gen"], ["verify"],
    ["eval", "G.gr", "--tree", "a", "b"], ["decompose", "G.gr", "--mode", "auto"],
    # separators, attached values, abbreviations, repeats
    ["solve", "--", "G.gr"], ["solve", "G.gr", "--", "x"], ["solve", "G.gr", "--k=3"],
    ["solve", "G.gr", "--js"], ["solve", "G.gr", "--ma", "3"], ["solve", "G.gr", "--max-t=4"],
    ["solve", "G.gr", "--alg", "dp", "--alg", "oracle"], ["solve", "G.gr", "--k", "2", "--k", "3"],
    ["solve", "G.gr", "--json", "--json"], ["solve", "-", "--k", "-1"],
]


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=lambda argv: " ".join(argv) or "no argv")
def test_dispatch_answers_as_the_whole_parser(capsys, argv):
    # a known subcommand's tokens go straight to its own parser; that must
    # give the namespace, help or usage error the whole parser gives
    whole = _parse_outcome(capsys, _parser().parse_args, argv)
    assert _parse_outcome(capsys, _parse, argv) == whole
    if argv[:1] == ["oracle"] and whole[0][0] == "args":
        assert whole[0][1]["alg"] == "oracle" and whole[0][1]["modulator"] is None


def test_threads_and_seed_flags_are_gone(tmp_path, capsys):
    path = write_gr(tmp_path, gen_grid(3))
    for flag in ("--threads", "--seed"):
        code, _, err = run(capsys, "solve", path, flag, "8")
        assert code == 2 and flag in err


def test_route_cap_flags_are_gone(tmp_path, capsys):
    path = write_gr(tmp_path, gen_grid(3))
    for flag in ("--oracle-cap", "--fes-cap"):
        code, _, err = run(capsys, "solve", path, flag, "3")
        assert code == 2 and flag in err


def test_readme_command_line_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    subparsers = _parser().commands
    flags = re.compile(r"(?<![\w-])(--[a-z](?:[a-z-]*[a-z])?|-[a-z])(?![\w-])")
    blocks = section.split("```")[1::2]  # the synopsis, then the examples
    synopsis = {line.split()[1] for line in blocks[0].splitlines() if line.startswith("stc ")}
    assert synopsis == set(subparsers)
    for line in "\n".join(blocks).splitlines():
        if line.startswith("stc "):
            name = line.split()[1]
            assert name in subparsers, line
            for flag in flags.findall(line.split("#")[0]):
                assert flag in subparsers[name]._option_string_actions, (flag, line)
    known = set().union(*(p._option_string_actions for p in subparsers.values()))
    named = set(flags.findall(section))
    assert {"--max-trees", "--modulator", "-o"} <= named <= known


def test_reused_parser_answers_as_a_fresh_process(tmp_path, capsys):
    # one process builds the parser once; a call must not see the flags or
    # defaults of the call before it
    path = write_gr(tmp_path, gen_grid(3))
    env = dict(os.environ, PYTHONPATH=str(Path(stc.__file__).resolve().parents[1]))
    calls = [
        ("solve", path, "--alg", "dp", "--k", "3"),
        ("solve", path),
        ("approx", path, "--eps", "0.5", "--json"),
        ("solve", path, "--alg", "nonsense"),  # a usage error after successes
        ("oracle", path, "--json"),
        ("solve", path, "--threads", "2"),  # a leftover token: the whole parser words it
        ("solve",),  # no input: the subcommand's parser words it
        ("solve", "-h"),
    ]
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "stc.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert run(capsys, "solve", path, "--alg", "nonsense")[0] == 2
    assert _parser() is _parser()


def test_binary_input_exits_two(tmp_path, capsys):
    binary = tmp_path / "binary.gr"
    binary.write_bytes(bytes(range(256)))
    code, _, err = run(capsys, "solve", str(binary))
    assert code == 2 and "UTF-8" in err


def test_internal_value_error_propagates(tmp_path, capsys, monkeypatch):
    import stc.bounds

    def broken(G, verts, ks):
        raise ValueError("solver fault")

    # auto routes suite graph 133, subdivided, to the subset step on its
    # 7-vertex kernel, since its other bounds do not meet (4 = lambda < 5)
    monkeypatch.setattr(stc.bounds, "_subset_tree", broken)
    path = write_gr(tmp_path, subdivided(suite_graphs()[133], 1))
    with pytest.raises(ValueError, match="solver fault"):
        main(["solve", path])


# -- no cyclic garbage --------------------------------------------------------


def _cyclic_garbage(capsys, *argv) -> tuple[int, int, str]:
    """(exit code, objects the collector frees after one request, stdout)."""
    gc.collect()
    code = main(list(argv))
    freed = gc.collect()  # first: the collector, back on, may run at any allocation
    return code, freed, capsys.readouterr().out


def test_requests_leave_no_cyclic_garbage(tmp_path, capsys):
    # main pauses the collector, which is safe only while no request makes
    # a reference cycle: whatever a request drops must be freed at once
    _parser()  # built once per process and kept, cycles and all
    g3, g4 = write_gr(tmp_path, gen_grid(3), "g3.gr"), write_gr(tmp_path, gen_grid(4), "g4.gr")
    fes = write_gr(tmp_path, subdivided(suite_graphs()[133], 1), "fes.gr")  # subset step
    pet = write_gr(tmp_path, _subdivided_petersen(random.Random(1), 3, 20)[1], "pet.gr")
    k55 = write_gr(tmp_path, Graph.from_edges(
        10, [(i, 5 + j) for i in range(5) for j in range(5)]), "k55.gr")
    sol, td = str(tmp_path / "sol.json"), str(tmp_path / "g4.td")
    routes = [
        ("trivial", "solve", write_gr(tmp_path, path_graph(6), "path.gr")),
        ("cycle", "solve", write_gr(tmp_path, cycle_graph(8), "cycle.gr")),
        ("fes", "solve", fes),
        ("fes", "solve", pet),
        ("dtc", *_dtc_request(tmp_path)),
        ("vi", *_vi_request(tmp_path)),
        ("dp", "solve", g3, "--alg", "dp"),
        ("dp", "solve", g4, "--alg", "dp"),
        ("oracle", "oracle", g3),
        ("approx", "approx", write_gr(tmp_path, grid_graph(2, 30), "ladder.gr"),
         "--eps", "0.5"),
    ]
    for alg, *argv in routes:
        code, freed, out = _cyclic_garbage(capsys, *argv, "--json")
        assert (code, freed, json.loads(out)["algorithm"]) == (0, 0, alg), argv
    decisions = [  # decisions, with a tree and with a refutation
        (0, ("solve", g3, "--alg", "dp", "--k", "3")),
        (1, ("solve", g3, "--alg", "dp", "--k", "2")),
        (1, ("solve", k55, "--alg", "dp", "--k", "4")),
        (1, ("oracle", g3, "--k", "2")),
    ]
    for want, argv in decisions:
        assert _cyclic_garbage(capsys, *argv)[:2] == (want, 0), argv
    for argv in [("solve", fes, "-o", sol), ("eval", fes, "--tree", sol),
                 ("decompose", g4), ("decompose", g4, "-o", td), ("verify", g4, td),
                 ("verify", fes, sol, "--json")]:
        assert _cyclic_garbage(capsys, *argv)[:2] == (0, 0), argv
    # gen and reduce write their indented JSON with json's pure-Python
    # encoder, whose closures make a cycle: a fixed few objects per call
    gens = [_cyclic_garbage(capsys, "gen", "grid", "--n", str(n), "-o", str(tmp_path / "gen"))
            for n in (3, 12)]
    big = write_gr(tmp_path, _subdivided_petersen(random.Random(1), 40, 2000)[1], "big.gr")
    reds = [_cyclic_garbage(capsys, "reduce", path, "-o", str(tmp_path / "red"))
            for path in (g3, big)]
    assert gens[0][:2] == gens[1][:2] and reds[0][:2] == reds[1][:2]
    assert gens[0][0] == reds[0][0] == 0


def test_main_restores_the_collector_state(tmp_path, capsys):
    path = write_gr(tmp_path, gen_grid(3))
    enabled = gc.isenabled()
    try:
        gc.enable()
        assert run(capsys, "solve", path)[0] == 0 and gc.isenabled()
        assert run(capsys, "solve", path, "--k", "0")[0] == 2 and gc.isenabled()
        assert run(capsys, "solve", path, "--alg", "nonsense")[0] == 2 and gc.isenabled()
        gc.disable()
        assert run(capsys, "solve", path)[0] == 0 and not gc.isenabled()
        assert run(capsys, "solve", path, "--k", "0")[0] == 2 and not gc.isenabled()
    finally:
        (gc.enable if enabled else gc.disable)()


def test_no_nested_function_calls_itself():
    # a closure that names itself holds a cell that points back at it, a
    # reference cycle that only the paused collector could free
    found = []
    for path in sorted(Path(stc.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for fn in ast.walk(outer):
                if fn is outer or not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if any(isinstance(node, ast.Name) and node.id == fn.name
                       for stmt in fn.body for node in ast.walk(stmt)):
                    found.append(f"{path.name}:{fn.lineno} {outer.name}.<locals>.{fn.name}")
    assert found == []
