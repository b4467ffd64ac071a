from __future__ import annotations

import json
import random
import re

import pytest

from conftest import cycle_graph, grid_graph, path_graph, random_connected_graph
from stc import formats
from stc.cli import main
from stc.decomposition import TreeDecomposition, decompose, validate_td
from stc.errors import FormatError
from stc.formats import (
    build_infeasible,
    build_solution,
    parse_gr,
    parse_solution,
    parse_td,
    solution_to_text,
    verify_solution,
    write_gr,
    write_td,
)
from stc.graph import DoubleWeightedGraph, Graph
from stc.oracle import stc_exact


def test_gr_roundtrip_c4_fixed_point():
    text = write_gr(cycle_graph(4))
    assert text == "p stc 4 4\n1 2\n1 4\n2 3\n3 4\n"
    assert write_gr(parse_gr(text)) == text


def test_gr_roundtrip_random():
    rng = random.Random(11)
    for _ in range(25):
        G = random_connected_graph(rng, rng.randint(2, 9), rng.randint(1, 14))
        text = write_gr(G)
        H = parse_gr(text)
        assert H == G
        assert write_gr(H) == text


def test_gr_comments_and_whitespace_ignored():
    text = "c a comment\n\np stc 3 2\nc another\n 1 2 \n2   3\n"
    G = parse_gr(text)
    assert G.n == 3 and G.edges == frozenset({(0, 1), (1, 2)})


def test_gr_weighted_roundtrip():
    base = cycle_graph(3)
    w = DoubleWeightedGraph(base, {e: 2 for e in base.edges}, {e: 5 for e in base.edges})
    text = write_gr(w)
    assert text.startswith("p stcw 3 3\n")
    back = parse_gr(text)
    assert isinstance(back, DoubleWeightedGraph)
    assert back.wt1 == w.wt1 and back.wt2 == w.wt2
    assert write_gr(back) == text


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("", 1),
        ("p wrong 2 1\n1 2\n", 1),
        ("p stc 2 1\n1 3\n", 2),
        ("p stc 2 1\n1 1\n", 2),
        ("p stc 3 2\n1 2\n1 2\n", 3),
        ("p stc 2 1\n1 2\n2 1\n", 3),
        ("p stc 2 1\n1 two\n", 2),
        ("p stcw 2 1\n1 2 1\n", 2),
        ("p stcw 2 1\n1 2 0 1\n", 2),
    ],
)
def test_gr_errors_carry_line_numbers(text, lineno):
    with pytest.raises(FormatError, match=f"line {lineno}"):
        parse_gr(text)


def test_gr_edge_count_mismatch():
    with pytest.raises(FormatError, match="expected 2 edge lines"):
        parse_gr("p stc 3 2\n1 2\n")


def _adjacency(G: Graph) -> list[list[int]]:
    return [list(s) for s in G._adj]


def _spy_on_line_loop(monkeypatch) -> list[str]:
    texts = []
    loop = formats._parse_gr_lines

    def spied(text):
        texts.append(text)
        return loop(text)

    monkeypatch.setattr(formats, "_parse_gr_lines", spied)
    return texts


def test_bulk_parse_equals_the_line_loop_on_random_graphs(monkeypatch):
    # the same n, edge order and adjacency order, whatever the line order
    rng = random.Random(24)
    looped = _spy_on_line_loop(monkeypatch)
    for _ in range(300):
        n = rng.randint(1, 40)
        G = random_connected_graph(rng, n, rng.randint(n - 1, 2 * n))
        head, *lines = write_gr(G).splitlines(keepends=True)
        rng.shuffle(lines)
        for text in (write_gr(G), head + "".join(lines)):
            bulk = parse_gr(text)
            assert looped == []  # write_gr's form, in any line order, is read whole
            ref = formats._parse_gr_lines(text)
            looped.clear()
            assert bulk == ref == G
            assert list(bulk.edges) == list(ref.edges)
            assert _adjacency(bulk) == _adjacency(ref)


@pytest.mark.parametrize(
    "variant, bulk",
    [
        (lambda t: "c a comment\n" + t, False),
        (lambda t: t.replace("\n", "\n\n", 2), False),
        (lambda t: t.replace("\n", "\r\n"), False),
        (lambda t: t.replace(" ", "\t", 3), False),
        (lambda t: t[:-1], False),
        (lambda t: re.sub(r"\b([0-9])", r"00\1", t), True),  # leading zeros stay canonical
    ],
)
def test_perturbed_gr_files_parse_to_the_canonical_graph(monkeypatch, variant, bulk):
    rng = random.Random(25)
    looped = _spy_on_line_loop(monkeypatch)
    for _ in range(20):
        n = rng.randint(2, 30)
        G = random_connected_graph(rng, n, rng.randint(n - 1, 2 * n))
        want = parse_gr(write_gr(G))
        text = variant(write_gr(G))
        looped.clear()
        got = parse_gr(text)
        assert looped == ([] if bulk else [text])
        assert got == want
        assert list(got.edges) == list(want.edges)
        assert _adjacency(got) == _adjacency(want)


@pytest.mark.parametrize(
    "text, message",
    [
        # the cases of test_gr_errors_carry_line_numbers
        ("", "line 1: missing problem line"),
        ("p wrong 2 1\n1 2\n", "line 1: expected 'p stc <n> <m>' or 'p stcw <n> <m>'"),
        ("p stc 2 1\n1 3\n", "line 2: vertex out of range 1..2"),
        ("p stc 2 1\n1 1\n", "line 2: self-loop at 1"),
        ("p stc 3 2\n1 2\n1 2\n", "line 3: duplicate edge 1 2"),
        ("p stc 2 1\n1 2\n2 1\n", "line 3: more than 1 edge lines"),
        ("p stc 2 1\n1 two\n", "line 2: edge line: not an integer: 'two'"),
        ("p stcw 2 1\n1 2 1\n", "line 2: expected 4 integers, got 3"),
        ("p stcw 2 1\n1 2 0 1\n", "line 2: weights must be >= 1"),
        # canonical text that fails one of the bulk path's checks
        ("p stc 3 3\n1 2\n2 3\n3 2\n", "line 4: duplicate edge 3 2"),
        ("p stc 3 2\n1 2\n3 3\n", "line 3: self-loop at 3"),
        ("p stc 3 2\n1 2\n0 3\n", "line 3: vertex out of range 1..3"),
        ("p stc 3 2\n1 2\n2 4\n", "line 3: vertex out of range 1..3"),
        ("p stc 3 1\n1 2\n2 3\n", "line 3: more than 1 edge lines"),
        ("p stc 3 0\n1 2\n", "line 2: more than 0 edge lines"),
        ("p stc 3 2\n1 2\n", "expected 2 edge lines, found 1"),
        ("p stc 1 1\n", "expected 1 edge lines, found 0"),
        ("p stc 0 0\n", "line 1: need n >= 1 and m >= 0"),
        ("p stc 3 2\n1 2 3\n4\n", "line 2: expected 2 integers, got 3"),
        # tokens past int()'s digit limit
        (
            "p stc " + "1" * 5000 + " 0\n",
            "line 1: problem line: not an integer: '" + "1" * 5000 + "'",
        ),
        (
            "p stc 3 1\n1 " + "2" * 5000 + "\n",
            "line 2: edge line: not an integer: '" + "2" * 5000 + "'",
        ),
    ],
)
def test_gr_error_messages_are_the_line_loops(text, message):
    with pytest.raises(FormatError) as exc:
        parse_gr(text)
    assert str(exc.value) == message


def test_td_roundtrip_fixed_point():
    G = grid_graph(3)
    td = decompose(G)
    text = write_td(td)
    back = parse_td(text)
    assert write_td(back) == text
    assert back.bags == td.bags and back.tree == td.tree


def test_td_roundtrip_of_a_20000_bag_path():
    # bags {i, i+1} of the path 0 - 1 - ... - 20000, in a path of bags.
    # Parsing and validating each take under 0.1 s (2 cores, CPython 3.11):
    # the parser looks duplicate tree edges up in a set, and validate_td
    # indexes the bags of each vertex once
    n = 20_001
    td = TreeDecomposition(
        n,
        tuple(frozenset({i, i + 1}) for i in range(n - 1)),
        frozenset((i, i + 1) for i in range(n - 2)),
    )
    text = write_td(td)
    back = parse_td(text)
    assert back == td
    assert write_td(back) == text
    assert validate_td(path_graph(n), back) is None


@pytest.mark.parametrize(
    "text, match",
    [
        ("s td 2 1 2\nb 1 1\nb 1 2\n1 2\n", "duplicate bag"),
        ("s td 2 1 2\nb 1 1\nb 2 2\n1 1\n", "bad tree edge"),
        ("s td 2 1 2\nb 1 1\nb 2 3\n1 2\n", "out of range"),
        ("s td 2 2 2\nb 1 1\nb 2 2\n1 2\n", "declared max bag size 2, actual 1"),
        ("s td 2 1 2\nb 1 1\n1 2\n", "expected 2 bag lines"),
        ("s td 3 1 3\nb 1 1\nb 2 2\nb 3 3\n1 2\n2 1\n", "line 6: duplicate tree edge 2 1"),
        ("s td 3 1 3\nb 1 1\nb 2 2\nb 3 3\n1 2\n", "expected 2 tree edges, found 1"),
    ],
)
def test_td_errors(text, match):
    with pytest.raises(FormatError, match=match):
        parse_td(text)


def test_solution_roundtrip_stable_key_order():
    G = cycle_graph(4)
    k, T = stc_exact(G)
    sol = build_solution(G, T, "oracle")
    text = solution_to_text(sol)
    assert list(json.loads(text)) == [
        "feasible", "k", "algorithm", "certified", "edges", "per_edge_congestion",
    ]
    assert solution_to_text(parse_solution(text)) == text


def test_solution_verify_ok_and_tampered():
    G = grid_graph(3)
    k, T = stc_exact(G)
    sol = build_solution(G, T, "oracle")
    assert verify_solution(G, sol) is None

    wrong_k = dict(sol, k=k - 1)
    assert "re-evaluates" in verify_solution(G, wrong_k)

    bad_edge = dict(sol, edges=[[1, 3]] + sol["edges"][1:])
    assert verify_solution(G, bad_edge) is not None

    bad_per = dict(sol, per_edge_congestion=dict(sol["per_edge_congestion"]))
    key = next(iter(bad_per["per_edge_congestion"]))
    bad_per["per_edge_congestion"][key] += 1
    assert "mismatch" in verify_solution(G, bad_per)


def test_solution_verify_weighted_host():
    base = cycle_graph(4)
    w = DoubleWeightedGraph.single(base, {e: 3 for e in base.edges})
    k, T = stc_exact(w)
    sol = build_solution(w, T, "oracle")
    assert sol["k"] == k
    assert verify_solution(w, sol) is None


def test_solution_parse_rejects_malformed():
    with pytest.raises(FormatError, match="invalid JSON"):
        parse_solution("{nope")
    with pytest.raises(FormatError, match="must be a JSON object"):
        parse_solution("[1, 2]")
    with pytest.raises(FormatError, match="'k'"):
        parse_solution('{"algorithm": "x", "certified": true}')
    with pytest.raises(FormatError, match="edges"):
        parse_solution('{"k": 1, "algorithm": "x", "certified": true, "feasible": true}')


def test_infeasible_document_shape():
    doc = build_infeasible(2, "dp", stc=3)
    text = solution_to_text(doc)
    assert json.loads(text) == {
        "feasible": False, "k": 2, "algorithm": "dp", "certified": True, "stc": 3,
    }
    back = parse_solution(text)
    assert back["feasible"] is False


def test_nonedge_tree_rejected_by_verify():
    G = cycle_graph(5)
    k, T = stc_exact(G)
    sol = build_solution(G, T, "oracle")
    sol["edges"] = [[1, 3], [2, 4], [3, 5], [1, 5]]
    problem = verify_solution(G, sol)
    assert problem is not None


def _indented_reference(doc: dict) -> str:
    order = ["feasible", "k", "algorithm", "certified", "edges", "per_edge_congestion"]
    ordered = {key: doc[key] for key in order if key in doc}
    ordered.update({k: v for k, v in doc.items() if k not in ordered})
    return json.dumps(ordered, indent=2) + "\n"


def test_solution_text_equals_indented_json_on_random_documents():
    rng = random.Random(12)
    words = ["oracle", "fes", "", "é", "☃ snow", 'q"uote', "back\\slash", "new\nline",
             "tab\t", "\x00", "\U0001f600"]

    def scalar():
        return rng.choice([
            rng.randint(-5, 10**6), rng.choice(words), rng.random(), True, False, None,
        ])

    def value(depth=0):
        if depth > 2 or rng.random() < 0.5:
            return scalar()
        if rng.random() < 0.5:
            return [value(depth + 1) for _ in range(rng.randint(0, 3))]
        return {rng.choice(words): value(depth + 1) for _ in range(rng.randint(0, 3))}

    for _ in range(400):
        doc = {}
        keys = ["feasible", "k", "algorithm", "certified", "edges", "per_edge_congestion",
                "eps", "target_k", "stc", "output", rng.choice(words)]
        rng.shuffle(keys)
        # edges and per-edge congestion in the shape build_solution gives them
        for key in keys[: rng.randint(1, len(keys))]:
            if key == "edges":
                m = rng.choice([0, 1, rng.randint(2, 40)])
                doc[key] = [[rng.randint(1, 99), rng.randint(1, 99)] for _ in range(m)]
            elif key == "per_edge_congestion":
                m = rng.choice([0, 1, rng.randint(2, 40)])
                doc[key] = {f"{rng.randint(1, 99)}-{rng.randint(1, 99)}": rng.randint(1, 50)
                            for _ in range(m)}
            elif key == "eps":
                doc[key] = rng.choice(["0.5", "1", "1e-9", 0.25])
            else:
                doc[key] = value()
        assert solution_to_text(doc) == _indented_reference(doc), doc


def test_solution_text_of_a_built_solution():
    G = grid_graph(3)
    k, T = stc_exact(G)
    for doc in (build_solution(G, T, "oracle"), build_infeasible(2, "dp", stc=3),
                dict(build_solution(G, T, "approx", certified=False), eps="0.5"),
                dict(build_solution(G, T, "dp"), target_k=4)):
        assert solution_to_text(doc) == _indented_reference(doc)


def test_verify_messages_for_edge_sets_that_are_not_spanning_trees():
    # 2x3 grid: 1-2-3 over 4-5-6, rungs 1-4, 2-5, 3-6
    G = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])

    def doc(edges):
        return {"feasible": True, "k": 1, "algorithm": "x", "certified": True,
                "edges": edges, "per_edge_congestion": {}}

    path = [[1, 2], [2, 3], [4, 5], [5, 6]]
    assert verify_solution(G, doc(path + [[1, 6]])) == "edge (1, 6) not in the graph"
    assert verify_solution(G, doc(path)) == "4 edges, a spanning tree needs 5"
    assert verify_solution(G, doc(path + [[1, 4], [2, 5]])) == "6 edges, a spanning tree needs 5"
    assert (verify_solution(G, doc([[1, 2], [4, 5], [5, 6], [1, 4], [2, 5]]))
            == "edge (2, 5) closes a cycle")
    assert verify_solution(G, doc(path + [[1, 7]])) == "edge endpoint out of range"
    assert verify_solution(G, doc(path + [[1, 4]])) == "k is 1 but the tree re-evaluates to 3"


def _tampered_grid_solutions():
    G = grid_graph(3)
    sol = build_solution(G, stc_exact(G)[1], "oracle")
    tags = sorted(sol["per_edge_congestion"])
    u, v = sol["edges"][0]
    assert u == 1

    def per_edge(**vals):
        return dict(sol, per_edge_congestion=sol["per_edge_congestion"] | vals)

    def first_edge(pair):
        return dict(sol, edges=[pair] + sol["edges"][1:])

    near = "per-edge congestion mismatch near "
    not_pairs = "edges are not a list of pairs"
    return G, [
        (per_edge(**{tags[1]: str(sol["per_edge_congestion"][tags[1]])}), near + tags[1]),
        (per_edge(**{tags[2]: [2], tags[3]: "2"}), near + tags[2]),
        (per_edge(**{tags[0]: None, "9-9": 1}), near + tags[0]),
        (first_edge([float(u), v]), not_pairs),
        (first_edge([True, v]), not_pairs),
        (first_edge([u, str(v)]), not_pairs),
    ]


def test_eval_and_verify_report_non_integer_values_without_a_traceback(tmp_path, capsys):
    G, cases = _tampered_grid_solutions()
    path = tmp_path / "g.gr"
    path.write_text(write_gr(G))
    for doc, problem in cases:
        assert verify_solution(G, doc) == problem
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(doc))
        assert main(["eval", str(path), "--tree", str(sol), "--json"]) == 1
        out = capsys.readouterr()
        assert json.loads(out.out) == {"ok": False, "problem": problem}
        assert out.err == ""
        assert main(["verify", str(path), str(sol), "--json"]) == 1
        out = capsys.readouterr()
        assert json.loads(out.out)["files"][1] == {"path": str(sol), "problem": problem}
        assert out.err == ""

