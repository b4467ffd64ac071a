"""Text formats: .gr graphs, .td tree decompositions, solution JSON.

All formats are 1-indexed on disk and 0-indexed in memory.  Writers are
canonical (sorted edges, fixed key order), so parse-then-write is a fixed
point: write(parse(write(x))) == write(x) byte for byte.  Parsers are strict
and raise FormatError with the offending line number.

The solution writer prints the bulky `edges` and `per_edge_congestion`
fields itself, since json's indenting encoder runs in pure Python: each is
one `%` template of m items, filled from one flat tuple of the values.  Its
bytes are unchanged: exactly json.dumps(doc, indent=2) plus a newline.

The .gr reader takes text in write_gr's form (edge lines in any order)
whole: one regex match, one int conversion of the edge lines, bulk checks
of the count and of duplicates, and Graph's own check of the range and of
self-loops.  The edge set is filled in line order, as the line loop fills
it, so the graph's edge and adjacency sets iterate alike either way.  Any
other text (comments, blank lines, CRLF, tabs, `p stcw`) and any text that
fails a check there goes to the line loop, which converts each edge line in
one step and words an error, with its line number, only once a line has
failed.  Neither builds an
adjacency (Graph builds it on first use), so `stc eval` never does.  The
solution verifier validates the tree by the same walk that measures it, and
names an out-of-range endpoint only after the tree has failed that check.
"""
from __future__ import annotations

import json
import re
from itertools import chain
from json.encoder import encode_basestring_ascii

from .decomposition import TreeDecomposition
from .errors import FormatError, GraphError, InvalidSpanningTreeError
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


# the form write_gr emits, edge lines in any order: nothing but the problem
# line and edge lines, one space apart, each line ending in a newline
_CANONICAL_GR = re.compile(r"p stc ([0-9]+) ([0-9]+)\n((?:[0-9]+ [0-9]+\n)*)")


def parse_gr(text: str) -> Graph | DoubleWeightedGraph:
    """Parse `p stc <n> <m>` (or `p stcw` with per-edge weight pairs).

    Text in write_gr's form is read whole (see the module docstring); any
    other text, and any text that fails a check there, goes to the line loop.
    """
    G = _parse_canonical_gr(text)
    return G if G is not None else _parse_gr_lines(text)


def _parse_canonical_gr(text: str) -> Graph | None:
    """The graph of text in write_gr's form, or None if text is not in that
    form or fails a check."""
    match = _CANONICAL_GR.fullmatch(text)
    if match is None:
        return None
    try:  # int() refuses a token past Python's digit limit
        n, m = int(match[1]), int(match[2])
        vals = list(map(int, match[3].split()))
    except ValueError:
        return None
    if len(vals) != 2 * m:
        return None
    # normalized and added in line order, as the line loop adds them
    seen = set([(u - 1, v - 1) if u < v else (v - 1, u - 1)
                for u, v in zip(vals[0::2], vals[1::2])])
    if len(seen) != m:
        return None
    try:  # Graph rejects n < 1, a self-loop and an endpoint out of range
        return Graph(n, frozenset(seen))
    except GraphError:
        return None


def _parse_gr_lines(text: str) -> Graph | DoubleWeightedGraph:
    """parse_gr line by line: any layout, and errors with their line number."""
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
    seen: set[tuple[int, int]] = set()
    weights: dict[tuple[int, int], tuple[int, int]] = {}
    for lineno, toks in lines:
        if len(seen) == m:
            raise FormatError(f"line {lineno}: more than {m} edge lines")
        try:
            vals = list(map(int, toks))
        except ValueError:
            vals = _int_tokens(lineno, toks, "edge line")  # raises, naming the token
        if len(vals) != want:
            raise FormatError(
                f"line {lineno}: expected {want} integers, got {len(vals)}"
            )
        u, v = vals[0], vals[1]
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"line {lineno}: vertex out of range 1..{n}")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        e = (u - 1, v - 1) if u < v else (v - 1, u - 1)
        if e in seen:
            raise FormatError(f"line {lineno}: duplicate edge {u} {v}")
        if weighted:
            w1, w2 = vals[2], vals[3]
            if w1 < 1 or w2 < 1:
                raise FormatError(f"line {lineno}: weights must be >= 1")
            weights[e] = (w1, w2)
        seen.add(e)
    if len(seen) != m:
        raise FormatError(f"expected {m} edge lines, found {len(seen)}")
    # already normalized and distinct; inserted as Graph.from_edges would, so
    # the edge and adjacency sets iterate in the same order
    base = Graph(n, frozenset(seen))
    if weighted:
        return DoubleWeightedGraph(
            base,
            {e: w[0] for e, w in weights.items()},
            {e: w[1] for e, w in weights.items()},
        )
    return base


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
    tree: set[tuple[int, int]] = set()
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
            tree.add(e)
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


def _tagged(per_edge: dict, edges) -> dict[str, int]:
    """per_edge's values keyed by 1-indexed "u-v" tags, in the order of edges."""
    return {f"{e[0] + 1}-{e[1] + 1}": per_edge[e] for e in edges}


def build_solution(
    g: Graph | DoubleWeightedGraph,
    tree: SpanningTree,
    algorithm: str,
    certified: bool = True,
) -> dict:
    """Solution document for a feasible answer; congestion is recomputed."""
    rep = congestion_report(g, tree)
    edges = sorted(rep.per_edge)  # the tree's edges: one entry per tree edge
    return {
        "feasible": True,
        "k": rep.max_congestion,
        "algorithm": algorithm,
        "certified": certified,
        "edges": [[u + 1, v + 1] for u, v in edges],
        "per_edge_congestion": _tagged(rep.per_edge, edges),
    }


def build_infeasible(k: int, algorithm: str, **extra) -> dict:
    doc = {"feasible": False, "k": k, "algorithm": algorithm, "certified": True}
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
        pair = "    [\n      %d,\n      %d\n    ]"
        return "[\n" + ",\n".join([pair] * len(val)) % tuple(
            chain.from_iterable(val)
        ) + "\n  ]"
    if key == "per_edge_congestion" and type(val) is dict and all(
        type(t) is str and type(c) is int for t, c in val.items()
    ):
        if not val:
            return "{}"
        tags = map(encode_basestring_ascii, val)
        return "{\n" + ",\n".join(["    %s: %d"] * len(val)) % tuple(
            chain.from_iterable(zip(tags, val.values()))
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

    The tree is validated once and measured once, from one walk.  Endpoints
    must be ints; an endpoint out of range is named only once the tree has
    failed its check, which such an edge always does.
    """
    base = g.base if isinstance(g, DoubleWeightedGraph) else g
    if not sol.get("feasible", True):
        return "nothing to verify: solution claims infeasibility"
    pairs = sol["edges"]
    try:
        if not all(type(u) is int and type(v) is int for u, v in pairs):
            return "edges are not a list of pairs"
        edges = frozenset((u - 1, v - 1) if u < v else (v - 1, u - 1) for u, v in pairs)
    except (TypeError, ValueError):
        return "edges are not a list of pairs"
    try:
        tree = SpanningTree(base, edges)
    except InvalidSpanningTreeError as exc:
        n = base.n
        if any(not (0 <= u < n and 0 <= v < n) for u, v in edges):
            return "edge endpoint out of range"
        return str(exc)
    rep = congestion_report(g, tree)
    if rep.max_congestion != sol["k"]:
        return f"k is {sol['k']} but the tree re-evaluates to {rep.max_congestion}"
    claimed = sol["per_edge_congestion"]
    want = _tagged(rep.per_edge, rep.per_edge)
    if claimed != want:
        # the least tag whose values differ; the claimed values may be of
        # any JSON type, so they are compared but never hashed or ordered
        wrong = min(
            t for t in claimed.keys() | want.keys()
            if t not in claimed or t not in want or claimed[t] != want[t]
        )
        return f"per-edge congestion mismatch near {wrong}"
    return None
