"""Text formats: .gr graphs, .td tree decompositions, JSON documents.

All formats are 1-indexed on disk and 0-indexed in memory.  Writers are
canonical (sorted edges, fixed key order), so parse-then-write is a fixed
point: write(parse(write(x))) == write(x) byte for byte.  Parsers are strict
and raise FormatError with the offending line number.

One writer prints every JSON document the CLI writes or prints: to_text
gives json.dumps(doc, indent=2[, sort_keys=True]) plus a newline (solution
files, the reduce trace, the gen sidecar) and to_line gives json.dumps(doc)
(the one-line --json answers), byte for byte.  json's indenting encoder runs
in pure Python, so neither calls it.  A bulky field is a Rows value: one `%`
template per item, as json.dumps writes the item on one line, and one flat
tuple of the values.  to_line joins the templates with ", " and fills them
in one step; to_text lays each distinct template out once, as indent=2 does
at the field's depth, and fills the joined layout in one step.  Every other
value is small and written by json's C encoder, or without an encoder for a
str, int or bool.  A solution's two bulky fields come from one flattening
of the sorted tree edges and their loads, so `solve -o F --json` formats
its solution once per form and builds no tag strings.
build_solution fills plain JSON values from the same flat tuples, and
solution_to_text turns a plain document's fields into the same Rows.

The .gr reader takes text in write_gr's form (edge lines in any order, ids
in decimal without a leading zero) whole: one regex match, one json.loads
of the comma-joined edge lines, bulk checks of the count and of duplicates,
and Graph's own check of the range and of self-loops.  On a token of the
form [1-9][0-9]* the JSON decode gives the int that int() gives: both read
ASCII decimal digits, JSON refuses only a leading zero (which the form
excludes), and both refuse a token past Python's digit limit.  The edge set
is filled in line order, as the line loop fills it, so the graph's edge and
adjacency sets iterate alike either way.  Any other text (comments, blank
lines, CRLF, tabs, leading zeros, a 0 id, `p stcw`) and any text that fails
a check there goes to the line loop, which converts each edge line in one
step and words an error, with its line number, only once a line has failed.
Neither builds an adjacency (Graph builds it on first use), so `stc eval`
never does, and neither does `stc solve` on the fes route, whose
kernelization reads neighbour lists.  The solution verifier validates the
tree by the same walk that measures it, names an out-of-range endpoint only
after the tree has failed that check, and looks the claimed loads up tag by
tag.
"""
from __future__ import annotations

import json
import re
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

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
# line and edge lines, one space apart, each line ending in a newline, and
# every count and id in decimal without a leading zero
_CANONICAL_GR = re.compile(
    r"p stc ([1-9][0-9]*) (0|[1-9][0-9]*)\n((?:[1-9][0-9]* [1-9][0-9]*\n)*)")


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
    body = match[3].replace(" ", ",").replace("\n", ",")[:-1]
    try:  # both refuse a token past Python's digit limit
        n, m = int(match[1]), int(match[2])
        vals = json.loads(f"[{body}]")  # the module docstring says why this is int()
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
    """The .gr text of g, edges sorted: one `%` template per edge line."""
    if isinstance(g, DoubleWeightedGraph):
        edges = g.base.sorted_edges()
        flat = tuple(chain.from_iterable(
            (u + 1, v + 1, g.wt1[(u, v)], g.wt2[(u, v)]) for u, v in edges))
        return f"p stcw {g.base.n} {g.base.m}\n" + "%d %d %s %s\n" * len(edges) % flat
    ends = _one_up(chain.from_iterable(g.sorted_edges()))
    return f"p stc {g.n} {g.m}\n" + "%d %d\n" * g.m % ends


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


# -- JSON documents -----------------------------------------------------------


class Rows(NamedTuple):
    """A bulky list or object field of a document: one `%` template per item,
    as json.dumps writes the item on one line, and the flat tuple of values
    that fills them in order.  Items of one shape share one template str."""

    open: str  # "[" for a list, "{" for an object
    items: list[str]
    flat: tuple


_CLOSE = {"[": "]", "{": "}"}
_PAIR = "[%d, %d]"
_TAG = "%d-%d"  # a tree edge's per-edge congestion key: its 1-indexed ends
_LOAD = f'"{_TAG}": %d'


def _one_up(ids) -> tuple:
    return tuple(map((1).__add__, ids))


def id_rows(ids) -> Rows:
    """0-indexed ids as a list of 1-indexed ids."""
    return Rows("[", ["%d"] * len(ids), _one_up(ids))


def pair_rows(pairs) -> Rows:
    """0-indexed pairs as a list of 1-indexed [u, v] pairs."""
    return Rows("[", [_PAIR] * len(pairs), _one_up(chain.from_iterable(pairs)))


def section_rows(sections) -> Rows:
    """(edge, path) pairs as a list of 1-indexed [[u, v], [[a, b], ...]] items."""
    shapes: dict[int, str] = {}
    for _, path in sections:
        if len(path) not in shapes:
            shapes[len(path)] = f"[{_PAIR}, [" + ", ".join([_PAIR] * len(path)) + "]]"
    edges = chain.from_iterable((e,) + path for e, path in sections)
    return Rows("[", [shapes[len(path)] for _, path in sections],
                _one_up(chain.from_iterable(edges)))


def _laid_out(item: str, pad: str) -> str:
    """item, a one-line template, as json.dumps(indent=2) lays the item out
    when its first line is led by pad.  A quoted literal in item holds no
    quote; a `%s` value is filled in after the layout, so it may hold any
    text."""
    out, i = [], 0
    while i < len(item):
        c = item[i]
        if c == '"':
            j = item.index('"', i + 1) + 1
            out.append(item[i:j])
            i = j
            continue
        if c in "[{" and item[i + 1] == _CLOSE[c]:
            out.append(c + _CLOSE[c])  # an empty container stays on its line
            i += 1
        elif c in "[{":
            pad += "  "
            out.append(c + "\n" + pad)
        elif c in "]}":
            pad = pad[:-2]
            out.append("\n" + pad + c)
        elif item.startswith(", ", i):
            out.append(",\n" + pad)
            i += 1
        else:
            out.append(c)
        i += 1
    return "".join(out)


def _indented(val, pad: str, sort_keys: bool) -> str:
    """json.dumps(val, indent=2, sort_keys=sort_keys) for a value whose
    first line is led by pad; Rows are filled in from their templates."""
    inner = pad + "  "
    if isinstance(val, Rows):
        if not val.items:
            return val.open + _CLOSE[val.open]
        laid = {item: _laid_out(item, inner) for item in set(val.items)}
        body = (",\n" + inner).join(map(laid.__getitem__, val.items)) % val.flat
        return f"{val.open}\n{inner}{body}\n{pad}{_CLOSE[val.open]}"
    if isinstance(val, dict):
        if not val:
            return "{}"
        items = sorted(val.items()) if sort_keys else val.items()
        body = (",\n" + inner).join([
            f"{encode_basestring_ascii(k)}: {_indented(v, inner, sort_keys)}"
            for k, v in items])
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(val, (list, tuple)):
        if not val:
            return "[]"
        body = (",\n" + inner).join([_indented(v, inner, sort_keys) for v in val])
        return f"[\n{inner}{body}\n{pad}]"
    return _json(val)  # a scalar prints alike without indent


def to_text(doc: dict, sort_keys: bool = False) -> str:
    """json.dumps(doc, indent=2, sort_keys=sort_keys) plus a newline.

    Keys are str.  A Rows value, at any depth, is written from its
    templates, laid out once per distinct template; the rest takes one
    short step per value, so a bulky field belongs in Rows.
    """
    return _indented(doc, "", sort_keys) + "\n"


def to_line(doc: dict) -> str:
    """json.dumps(doc), with doc's Rows fields filled in from their templates."""
    return "{" + ", ".join([
        f"{encode_basestring_ascii(k)}: {_json(v)}" for k, v in doc.items()]) + "}"


def _json(val) -> str:
    """json.dumps(val): a str, int or bool is written without building an
    encoder, as json's C encoder writes it, Rows are filled in from their
    templates, and the rest is written by that encoder."""
    if type(val) is str:
        return encode_basestring_ascii(val)
    if type(val) is int:
        return int.__repr__(val)
    if type(val) is bool:
        return "true" if val else "false"
    if isinstance(val, Rows):
        return val.open + ", ".join(val.items) % val.flat + _CLOSE[val.open]
    return json.dumps(val)


def solution_document(
    g: Graph | DoubleWeightedGraph,
    tree: SpanningTree,
    algorithm: str,
    certified: bool = True,
) -> dict:
    """The document of a feasible answer, congestion recomputed, with the
    tree's sorted edges and their loads flattened once into the Rows of
    both bulky fields."""
    rep = congestion_report(g, tree)
    loads, m = rep.per_edge, len(rep.per_edge)
    # (u + 1, v + 1, load) for each tree edge (u, v), in sorted order
    flat = tuple(chain.from_iterable((e[0] + 1, e[1] + 1, loads[e]) for e in sorted(loads)))
    ends = list(flat)
    del ends[2::3]
    return {
        "feasible": True,
        "k": rep.max_congestion,
        "algorithm": algorithm,
        "certified": certified,
        "edges": Rows("[", [_PAIR] * m, tuple(ends)),
        "per_edge_congestion": Rows("{", [_LOAD] * m, flat),
    }


def build_solution(
    g: Graph | DoubleWeightedGraph,
    tree: SpanningTree,
    algorithm: str,
    certified: bool = True,
) -> dict:
    """Solution document for a feasible answer as plain JSON values, filled
    from solution_document's flat tuples; tags come from its tag template."""
    doc = solution_document(g, tree, algorithm, certified)
    ends, loads = doc["edges"].flat, doc["per_edge_congestion"].flat
    doc["edges"] = [[u, v] for u, v in zip(ends[0::2], ends[1::2])]
    tags = (f"{_TAG} " * (len(ends) // 2) % ends).split()
    doc["per_edge_congestion"] = dict(zip(tags, loads[2::3]))
    return doc


def build_infeasible(k: int, algorithm: str, **extra) -> dict:
    doc = {"feasible": False, "k": k, "algorithm": algorithm, "certified": True}
    doc.update(extra)
    return doc


def solution_to_text(sol: dict) -> str:
    """The document as json.dumps(doc, indent=2) plus a newline, keys in the
    canonical order.

    sol is a document of solution_document, build_solution or
    build_infeasible, fields added or not.  Edges and per-edge congestion
    are Rows, or pairs of ints and a map of str to int, which become Rows.
    """
    order = ["feasible", "k", "algorithm", "certified", "edges", "per_edge_congestion"]
    ordered = {key: sol[key] for key in order if key in sol}
    ordered.update({k: v for k, v in sol.items() if k not in ordered})
    edges, loads = ordered.get("edges"), ordered.get("per_edge_congestion")
    if isinstance(edges, list):
        ordered["edges"] = Rows("[", [_PAIR] * len(edges), tuple(chain.from_iterable(edges)))
    if isinstance(loads, dict):
        ordered["per_edge_congestion"] = Rows("{", ["%s: %d"] * len(loads), tuple(
            chain.from_iterable(zip(map(encode_basestring_ascii, loads), loads.values()))))
    return to_text(ordered)


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
    failed its check, which such an edge always does.  Per-edge congestion
    must hold each tree edge's tag with its load as an int (not a bool, nor
    a float that compares equal), and no other tag; the values are looked
    up tag by tag, and only a mismatch builds the expected map, to name
    the least tag that is wrong.  A problem names an edge in the file's
    1-indexed ids.
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
        if exc.edge is None:
            return str(exc)
        u, v = exc.edge
        return f"edge ({u + 1}, {v + 1}) {exc.reason}"
    rep = congestion_report(g, tree)
    if rep.max_congestion != sol["k"]:
        return f"k is {sol['k']} but the tree re-evaluates to {rep.max_congestion}"
    claimed, loads = sol["per_edge_congestion"], rep.per_edge
    got = [claimed.get(f"{u + 1}-{v + 1}") for u, v in loads]  # tags as _TAG writes them
    if len(claimed) != len(got) or got != list(loads.values()) or set(map(type, got)) - {int}:
        # the claimed values may be of any JSON type, so they are compared
        # but never hashed or ordered
        want = {f"{u + 1}-{v + 1}": c for (u, v), c in loads.items()}
        wrong = min(
            t for t in claimed.keys() | want.keys()
            if t not in claimed or t not in want
            or type(claimed[t]) is not int or claimed[t] != want[t]
        )
        return f"per-edge congestion mismatch near {wrong}"
    return None
