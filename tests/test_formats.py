from __future__ import annotations

import json
import random
import re
from itertools import chain

import pytest

from conftest import cycle_graph, grid_graph, path_graph, random_connected_graph
from stc import formats
from stc.cli import main
from stc.decomposition import TreeDecomposition, decompose, validate_td
from stc.errors import FormatError
from stc.formats import (
    Rows,
    build_infeasible,
    build_solution,
    parse_gr,
    parse_solution,
    parse_td,
    solution_document,
    solution_to_text,
    to_line,
    to_text,
    verify_solution,
    write_gr,
    write_td,
)
from stc.graph import DoubleWeightedGraph, Graph, SpanningTree, congestion_report
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
        (lambda t: re.sub(r"\b([0-9])", r"00\1", t), False),  # JSON has no leading zeros
        (lambda t: re.sub(r"^([0-9]+) ([0-9]+)$", r"\2 \1", t, flags=re.M), True),  # v u
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


@pytest.mark.parametrize(
    "text",
    [
        "p stc 3 2\n01 2\n2 3\n",  # leading zeros: JSON has none, int() reads them
        "p stc 03 2\n1 2\n2 3\n",
        "p stc 3 02\n1 2\n2 3\n",
        "p stc 3 2\n1 2\n2 003\n",
        "p stc 3 2\n1 2\n0 3\n",  # a 0 id
        "p stc 3 2\n1 2\n2 00\n",
        "p stc 0 0\n",
        "p stc 3 0\n",
        "p stc 3 00\n",
        "p stc 3 1\n1 " + "2" * 5000 + "\n",  # past the digit limit
        "p stc 3 1\n1 " + "0" * 4999 + "2\n",
        "p stc 3 1\n1 " + "1" * 4300 + "\n",  # at the limit: out of range
        "p stc " + "1" * 4301 + " 0\n",
    ],
)
def test_canonical_layout_outside_the_json_form_reads_as_the_line_loop(text):
    # the whole-text reader takes only [1-9][0-9]* ids, where one JSON
    # decode gives int()'s values; any other token reads as the line loop
    # reads it, to the same graph or the same error
    try:
        want = formats._parse_gr_lines(text)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            parse_gr(text)
        assert str(got.value) == str(exc)
    else:
        got = parse_gr(text)
        assert got == want and list(got.edges) == list(want.edges)


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


def _random_documents(rng: random.Random, count: int):
    """Documents of random fields: edges and per-edge congestion in the
    shape build_solution gives them, the rest random JSON values."""
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

    for _ in range(count):
        doc = {}
        keys = ["feasible", "k", "algorithm", "certified", "edges", "per_edge_congestion",
                "eps", "target_k", "stc", "output", rng.choice(words)]
        rng.shuffle(keys)
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
        yield doc


def test_solution_text_equals_indented_json_on_random_documents():
    for doc in _random_documents(random.Random(12), 400):
        assert solution_to_text(doc) == _indented_reference(doc), doc


def _with_rows(doc: dict) -> dict:
    """doc with its edges and per-edge congestion as Rows of the shape
    solution_to_text gives them."""
    out = dict(doc)
    if "edges" in doc:
        out["edges"] = Rows("[", ["[%d, %d]"] * len(doc["edges"]),
                            tuple(chain.from_iterable(doc["edges"])))
    if "per_edge_congestion" in doc:
        loads = doc["per_edge_congestion"]
        out["per_edge_congestion"] = Rows("{", ["%s: %d"] * len(loads), tuple(
            chain.from_iterable((json.dumps(t), c) for t, c in loads.items())))
    return out


def test_writers_equal_json_dumps_on_random_documents():
    # one set of templates, both layouts: one line as --json prints it, and
    # indented, keys in their order or sorted, as the files are written
    for doc in _random_documents(random.Random(13), 400):
        rows = _with_rows(doc)
        assert to_line(rows) == json.dumps(doc), doc
        assert to_text(rows) == json.dumps(doc, indent=2) + "\n", doc
        assert to_text(doc, sort_keys=True) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        nested = {"outer": [rows, {"inner": rows}], "rows": rows}
        plain = {"outer": [doc, {"inner": doc}], "rows": doc}
        assert to_text(nested) == json.dumps(plain, indent=2) + "\n"


def _bfs_tree(G: Graph) -> SpanningTree:
    seen, edges, order = {0}, [], [0]
    for v in order:
        for u in sorted(G.neighbors(v)):
            if u not in seen:
                seen.add(u)
                order.append(u)
                edges.append((min(u, v), max(u, v)))
    return SpanningTree(G, frozenset(edges))


def test_built_documents_equal_json_dumps():
    # solution_document's Rows, filled from the report, against json.dumps
    # of the document built field by field, with the fields the CLI adds
    rng = random.Random(14)
    for trial in range(120):
        n = rng.randint(1, 40)
        G = Graph(1, frozenset())
        if n > 1:
            G = random_connected_graph(rng, n, rng.randint(n - 1, 2 * n))
        T = _bfs_tree(G)
        host = G
        if trial % 3 == 0:  # weighted loads
            host = DoubleWeightedGraph(G, {e: rng.randint(1, 9) for e in G.edges},
                                       {e: rng.randint(1, 9) for e in G.edges})
        rep = congestion_report(host, T)
        alg, certified = rng.choice(["fes", "dp", "approx", 'q"uote']), rng.random() < 0.5
        plain = {
            "feasible": True, "k": rep.max_congestion, "algorithm": alg, "certified": certified,
            "edges": [[u + 1, v + 1] for u, v in sorted(rep.per_edge)],
            "per_edge_congestion": {f"{u + 1}-{v + 1}": rep.per_edge[(u, v)]
                                    for u, v in sorted(rep.per_edge)},
        }
        extra = rng.choice([{}, {"target_k": rng.randint(1, 9)}, {"eps": rng.choice(["0.5", "1"])},
                            {"target_k": 3, "output": "sol.json"},
                            {"eps": "1", "output": "é.json"}])
        doc = solution_document(host, T, alg, certified) | extra
        assert build_solution(host, T, alg, certified) == plain
        assert to_line(doc) == json.dumps(plain | extra)
        assert solution_to_text(doc) == to_text(doc) == json.dumps(plain | extra, indent=2) + "\n"
    for k, stc in ((1, 2), (3, 10**6)):
        doc = build_infeasible(k, "dp", stc=stc)
        assert to_line(doc) == json.dumps(doc)
        assert solution_to_text(doc) == json.dumps(doc, indent=2) + "\n"


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



def test_eval_refuses_per_edge_values_that_only_compare_equal(tmp_path, capsys):
    # 3.0 == 3 and true == 1 in Python, but a load is an int
    G = Graph.from_edges(10, list(grid_graph(3).edges) + [(8, 9)])  # 9-10 carries 1
    path = tmp_path / "g.gr"
    path.write_text(write_gr(G))
    sol = build_solution(G, stc_exact(G)[1], "oracle")
    text = solution_to_text(sol)
    tags = sorted(sol["per_edge_congestion"])
    ones = [t for t in tags if sol["per_edge_congestion"][t] == 1]
    wide = next(t for t in tags if sol["per_edge_congestion"][t] > 1)
    assert ones
    cases = [
        (f'"{wide}": {sol["per_edge_congestion"][wide]}',
         f'"{wide}": {sol["per_edge_congestion"][wide]}.0', wide),
        (f'"{ones[0]}": 1', f'"{ones[0]}": true', ones[0]),
    ]
    for old, new, tag in cases:
        assert text.count(old) == 1
        doc = parse_solution(text.replace(old, new))
        problem = f"per-edge congestion mismatch near {tag}"
        assert verify_solution(G, doc) == problem
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(text.replace(old, new))
        assert main(["eval", str(path), "--tree", str(sol_path), "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {"ok": False, "problem": problem}
    assert verify_solution(G, parse_solution(text)) is None
