"""Text formats: .gr graphs, .td tree decompositions, solution JSON.

All formats are 1-indexed on disk and 0-indexed in memory.  Writers are
canonical (sorted edges, fixed key order), so parse-then-write is a fixed
point: write(parse(write(x))) == write(x) byte for byte.  Parsers are strict
and raise FormatError with the offending line number.

The solution writer prints the bulky `edges` and `per_edge_congestion`
fields itself, since json's indenting encoder runs in pure Python; its bytes
are unchanged: exactly json.dumps(doc, indent=2) plus a newline.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .decomposition import TreeDecomposition
from .errors import FormatError, InvalidSpanningTreeError
from .graph import (
    DoubleWeightedGraph,
    Graph,
    SpanningTree,
    congestion_report,
    edge_key,
)


def _tokenized_lines(text: str):
    """(line_number, tokens) for content lines; comments and blanks skipped."""
    for i, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0] == "c":
            continue
        yield i, toks


def _int_tokens(lineno: int, toks, what: str) -> list[int]:
    out = []
    for t in toks:
        try:
            out.append(int(t))
        except ValueError:
            raise FormatError(f"line {lineno}: {what}: not an integer: {t!r}")
    return out


def parse_gr(text: str) -> Graph | DoubleWeightedGraph:
    """Parse `p stc <n> <m>` (or `p stcw` with per-edge weight pairs)."""
    lines = _tokenized_lines(text)
    try:
        lineno, toks = next(lines)
    except StopIteration:
        raise FormatError("line 1: missing problem line")
    if len(toks) != 4 or toks[0] != "p" or toks[1] not in ("stc", "stcw"):
        raise FormatError(
            f"line {lineno}: expected 'p stc <n> <m>' or 'p stcw <n> <m>'"
        )
    n, m = _int_tokens(lineno, toks[2:], "problem line")
    if n < 1 or m < 0:
        raise FormatError(f"line {lineno}: need n >= 1 and m >= 0")
    weighted = toks[1] == "stcw"
    want = 4 if weighted else 2
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    weights: dict[tuple[int, int], tuple[int, int]] = {}
    for lineno, toks in lines:
        if len(edges) == m:
            raise FormatError(f"line {lineno}: more than {m} edge lines")
        vals = _int_tokens(lineno, toks, "edge line")
        if len(vals) != want:
            raise FormatError(
                f"line {lineno}: expected {want} integers, got {len(vals)}"
            )
        u, v = vals[0], vals[1]
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"line {lineno}: vertex out of range 1..{n}")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        e = edge_key(u - 1, v - 1)
        if e in weights or e in seen:
            raise FormatError(f"line {lineno}: duplicate edge {u} {v}")
        if weighted:
            w1, w2 = vals[2], vals[3]
            if w1 < 1 or w2 < 1:
                raise FormatError(f"line {lineno}: weights must be >= 1")
            weights[e] = (w1, w2)
        else:
            edges.append(e)
        seen.add(e)
    count = len(weights) if weighted else len(edges)
    if count != m:
        raise FormatError(f"expected {m} edge lines, found {count}")
    if weighted:
        base = Graph.from_edges(n, weights.keys())
        return DoubleWeightedGraph(
            base,
            {e: w[0] for e, w in weights.items()},
            {e: w[1] for e, w in weights.items()},
        )
    return Graph.from_edges(n, edges)


def write_gr(g: Graph | DoubleWeightedGraph) -> str:
    if isinstance(g, DoubleWeightedGraph):
        out = [f"p stcw {g.base.n} {g.base.m}"]
        for u, v in g.base.sorted_edges():
            w1 = g.wt1[(u, v)]
            w2 = g.wt2[(u, v)]
            out.append(f"{u + 1} {v + 1} {w1} {w2}")
    else:
        out = [f"p stc {g.n} {g.m}"]
        for u, v in g.sorted_edges():
            out.append(f"{u + 1} {v + 1}")
    return "\n".join(out) + "\n"


def parse_td(text: str) -> TreeDecomposition:
    """Parse `s td <#bags> <max_bag_size> <n>` plus bag and tree lines."""
    lines = _tokenized_lines(text)
    try:
        lineno, toks = next(lines)
    except StopIteration:
        raise FormatError("line 1: missing solution line")
    if len(toks) != 5 or toks[0] != "s" or toks[1] != "td":
        raise FormatError(f"line {lineno}: expected 's td <#bags> <max_bag_size> <n>'")
    nbags, maxbag, n = _int_tokens(lineno, toks[2:], "solution line")
    if nbags < 1 or maxbag < 0 or n < 1:
        raise FormatError(f"line {lineno}: counts out of range")
    bags: dict[int, frozenset[int]] = {}
    tree: list[tuple[int, int]] = []
    for lineno, toks in lines:
        if toks[0] == "b":
            vals = _int_tokens(lineno, toks[1:], "bag line")
            if not vals:
                raise FormatError(f"line {lineno}: bag line without an id")
            bid, verts = vals[0], vals[1:]
            if not 1 <= bid <= nbags:
                raise FormatError(f"line {lineno}: bag id out of range 1..{nbags}")
            if bid in bags:
                raise FormatError(f"line {lineno}: duplicate bag {bid}")
            if any(not 1 <= v <= n for v in verts):
                raise FormatError(f"line {lineno}: bag vertex out of range 1..{n}")
            if len(set(verts)) != len(verts):
                raise FormatError(f"line {lineno}: repeated vertex in bag {bid}")
            bags[bid] = frozenset(v - 1 for v in verts)
        else:
            vals = _int_tokens(lineno, toks, "tree edge line")
            if len(vals) != 2:
                raise FormatError(f"line {lineno}: expected two bag ids")
            a, b = vals
            if not (1 <= a <= nbags and 1 <= b <= nbags) or a == b:
                raise FormatError(f"line {lineno}: bad tree edge {a} {b}")
            e = edge_key(a - 1, b - 1)
            if e in tree:
                raise FormatError(f"line {lineno}: duplicate tree edge {a} {b}")
            tree.append(e)
    if len(bags) != nbags:
        raise FormatError(f"expected {nbags} bag lines, found {len(bags)}")
    if len(tree) != nbags - 1:
        raise FormatError(f"expected {nbags - 1} tree edges, found {len(tree)}")
    actual = max((len(bags[i]) for i in bags), default=0)
    if actual != maxbag:
        raise FormatError(f"declared max bag size {maxbag}, actual {actual}")
    return TreeDecomposition(
        n, tuple(bags[i + 1] for i in range(nbags)), frozenset(tree)
    )


def write_td(td: TreeDecomposition) -> str:
    maxbag = max((len(b) for b in td.bags), default=0)
    out = [f"s td {len(td.bags)} {maxbag} {td.n}"]
    for i, bag in enumerate(td.bags, start=1):
        verts = " ".join(str(v + 1) for v in sorted(bag))
        out.append(f"b {i} {verts}".rstrip())
    for a, b in sorted(td.tree):
        out.append(f"{a + 1} {b + 1}")
    return "\n".join(out) + "\n"


# -- solution JSON ------------------------------------------------------------


def _edge_tag(e: tuple[int, int]) -> str:
    return f"{e[0] + 1}-{e[1] + 1}"


def build_solution(
    g: Graph | DoubleWeightedGraph,
    tree: SpanningTree,
    algorithm: str,
    certified: bool = True,
) -> dict:
    """Solution document for a feasible answer; congestion is recomputed."""
    rep = congestion_report(g, tree)
    return {
        "feasible": True,
        "k": rep.max_congestion,
        "algorithm": algorithm,
        "certified": certified,
        "edges": [[u + 1, v + 1] for u, v in sorted(tree.edges)],
        "per_edge_congestion": {
            _edge_tag(e): rep.per_edge[e] for e in sorted(rep.per_edge)
        },
    }


def build_infeasible(k: int, algorithm: str, certified: bool = True, **extra) -> dict:
    doc = {"feasible": False, "k": k, "algorithm": algorithm, "certified": certified}
    doc.update(extra)
    return doc


def _field_text(key: str, val) -> str:
    """json.dumps(val, indent=2) as it appears one level into the document."""
    if key == "edges" and type(val) is list and all(
        type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) is int
        for p in val
    ):
        if not val:
            return "[]"
        return "[\n" + ",\n".join(
            f"    [\n      {u},\n      {v}\n    ]" for u, v in val
        ) + "\n  ]"
    if key == "per_edge_congestion" and type(val) is dict and all(
        type(t) is str and type(c) is int for t, c in val.items()
    ):
        if not val:
            return "{}"
        return "{\n" + ",\n".join(
            f"    {encode_basestring_ascii(t)}: {c}" for t, c in val.items()
        ) + "\n  }"
    return json.dumps(val, indent=2).replace("\n", "\n  ")


def solution_to_text(sol: dict) -> str:
    """The document as json.dumps(doc, indent=2) plus a newline, keys in the
    canonical order; edges and per-edge congestion are written directly."""
    order = ["feasible", "k", "algorithm", "certified", "edges", "per_edge_congestion"]
    ordered = {key: sol[key] for key in order if key in sol}
    ordered.update({k: v for k, v in sol.items() if k not in ordered})
    if not ordered or any(type(k) is not str for k in ordered):
        return json.dumps(ordered, indent=2) + "\n"
    body = ",\n".join(
        f"  {encode_basestring_ascii(k)}: {_field_text(k, v)}" for k, v in ordered.items()
    )
    return "{\n" + body + "\n}\n"


def parse_solution(text: str) -> dict:
    try:
        sol = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno}: invalid JSON: {exc.msg}")
    if not isinstance(sol, dict):
        raise FormatError("solution must be a JSON object")
    for key, typ in (("k", int), ("algorithm", str), ("certified", bool)):
        val = sol.get(key)
        if not isinstance(val, typ) or (typ is int and isinstance(val, bool)):
            raise FormatError(f"solution field {key!r} missing or mistyped")
    if sol.get("feasible", True):
        if not isinstance(sol.get("edges"), list):
            raise FormatError("feasible solution needs an 'edges' list")
        if not isinstance(sol.get("per_edge_congestion"), dict):
            raise FormatError("feasible solution needs 'per_edge_congestion'")
    return sol


def verify_solution(g: Graph | DoubleWeightedGraph, sol: dict) -> str | None:
    """Recompute the tree's congestion; None if the document checks out.

    The tree is validated once and measured once.
    """
    base = g.base if isinstance(g, DoubleWeightedGraph) else g
    if not sol.get("feasible", True):
        return "nothing to verify: solution claims infeasibility"
    try:
        edges = frozenset(edge_key(u - 1, v - 1) for u, v in sol["edges"])
    except (TypeError, ValueError):
        return "edges are not a list of pairs"
    if any(not (0 <= u < base.n and 0 <= v < base.n) for u, v in edges):
        return "edge endpoint out of range"
    try:
        tree = SpanningTree(base, edges)
    except InvalidSpanningTreeError as exc:
        return str(exc)
    rep = congestion_report(g, tree)
    if rep.max_congestion != sol["k"]:
        return f"k is {sol['k']} but the tree re-evaluates to {rep.max_congestion}"
    claimed = sol["per_edge_congestion"]
    want = {_edge_tag(e): c for e, c in rep.per_edge.items()}
    if claimed != want:
        wrong = sorted(set(claimed.items()) ^ set(want.items()))
        return f"per-edge congestion mismatch near {wrong[0][0]}"
    return None
