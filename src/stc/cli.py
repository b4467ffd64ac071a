"""Command line interface: parse arguments, call the library, print results.

Subcommands: solve (routed by `stc.solve`), approx, oracle (solve with the
oracle, weighted input allowed), eval, gen, decompose, reduce, verify.  Exit
codes: 0 success or "yes", 1 certified "no" or failed verification, 2 usage
or input error, 3 the oracle's enumeration budget exceeded.  Any other
error is a fault and propagates.  With --json, results go to stdout and
errors, argparse's usage errors included, to stderr as JSON; without it a
usage error reads as ArgumentParser.error words it.

A command line is parsed once.  When its first token names a subcommand, the
rest goes straight to that subcommand's parser, the very object the whole
parser would hand the same tokens to, so the answer is the same.  Everything
else (no arguments, help, an unknown command, an option before the command,
a token the subcommand leaves over) goes to the whole parser, which words
the help or the error as before.

The oracle's caps come from --max-trees and --max-millis alone, and
--modulator is refused on the routes that take none (dp and oracle).

Every reported tree has been re-evaluated with congestion_report, so a "yes"
is always backed by a checked witness.

main pauses the cyclic garbage collector for the length of one request and
restores its prior state on the way out; the library never touches gc.  The
pause is safe because a request makes no reference cycles.  What it builds
are acyclic tuples, sets, lists and dicts, and reference counting frees each
as soon as it dies.  No recursive helper is a closure that calls itself (its
cell would point back at it), so json's pure-Python encoder, whose closures
do, never runs: every indented document goes through `formats.to_text`.
Only argparse's help formatter (its sections point back at it) makes a
cycle, where help or a plain usage error is printed: a fixed few dozen
objects per call, left for the next collection.  So a collection inside a
request frees nothing and only re-scans live objects; on large sparse
inputs, skipping those passes makes a request about a sixth faster.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from fractions import Fraction

from . import formats
from .decomposition import decompose, validate_td
from .dp import solve_approx_tw
from .errors import (
    BudgetExceededError,
    FormatError,
    GraphError,
    InvalidDecompositionError,
    InvalidSpanningTreeError,
)
from .graph import DoubleWeightedGraph, Graph
from .oracle import DEFAULT_MAX_MILLIS, DEFAULT_MAX_TREES, EnumerationBudget
from .reductions import gen_3partition, gen_bsat, gen_grid, gen_ubp, grid_corners
from .route import ALGORITHMS, solve
from .structural import fes_value, reduce_graph

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    pass


class _ArgError(Exception):
    """argparse refused the command line: args are (parser, message)."""


class _Parser(argparse.ArgumentParser):
    """Raises _ArgError on a usage error, so _request words it as text or JSON;
    the subparsers inherit the class.  `commands` maps each subcommand to its
    parser (set on the whole parser only)."""

    commands: dict[str, _Parser]

    def error(self, message):
        raise _ArgError(self, message)


@functools.cache
def _parser() -> _Parser:
    """The whole parser, built on first use and kept: parse_args leaves it unchanged."""
    top = _Parser(prog="stc", description="Spanning tree congestion toolkit")
    sub = top.add_subparsers(dest="command", required=True)
    top.commands = sub.choices

    def common(p, output=True):
        p.add_argument("--json", action="store_true", help="JSON results and errors")
        if output:
            p.add_argument("-o", "--output", help="write the result here instead of stdout")

    def budget(p):
        p.add_argument("--max-trees", type=int, default=DEFAULT_MAX_TREES,
                       help="cap on the trees the oracle measures")
        p.add_argument("--max-millis", type=int, default=DEFAULT_MAX_MILLIS,
                       help="cap on the oracle's enumeration time in ms")

    p = sub.add_parser("solve", help="exact spanning tree congestion")
    p.add_argument("input", help=".gr graph file")
    p.add_argument("--alg", default="auto", choices=ALGORITHMS)
    p.add_argument("--k", type=int, help="decide stc <= k instead of optimizing")
    p.add_argument("--modulator", help="file with 1-indexed modulator vertices")
    budget(p)
    common(p)

    p = sub.add_parser("approx", help="(1+eps)-approximate congestion")
    p.add_argument("input")
    p.add_argument("--eps", required=True, help="approximation slack, e.g. 0.5")
    common(p)

    p = sub.add_parser("oracle", help="brute-force enumeration (accepts weighted .gr)")
    p.add_argument("input")
    p.add_argument("--k", type=int, help="decide stc <= k instead of optimizing")
    budget(p)
    common(p)
    p.set_defaults(alg="oracle", modulator=None)

    p = sub.add_parser("eval", help="re-evaluate and verify a solution JSON")
    p.add_argument("input")
    p.add_argument("--tree", required=True, help="solution JSON file")
    common(p, output=False)

    p = sub.add_parser("gen", help="emit a hardness instance: .gr plus JSON sidecar")
    p.add_argument("kind", choices=["ubp", "3part", "bsat", "grid"])
    p.add_argument("--t", type=int, help="ubp: number of bins")
    p.add_argument("--items", help="ubp/3part: comma-separated item sizes")
    p.add_argument("--family", default="stars", choices=["stars", "cliques"],
                   help="ubp: item graph family")
    p.add_argument("--bin", type=int, dest="bin_size", help="3part: target sum B")
    p.add_argument("--clauses", help="bsat: semicolon-separated clauses of 3 ints")
    p.add_argument("--n", type=int, help="grid: side length")
    common(p)

    p = sub.add_parser("decompose", help="tree decomposition as .td")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("reduce", help="feedback-edge kernel: .gr plus trace JSON")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("verify", help="validate .gr / .td / solution files")
    p.add_argument("files", nargs="+")
    common(p, output=False)
    return top


def _parse(argv: list[str]) -> argparse.Namespace:
    """_parser().parse_args(argv), in one pass when argv[0] is a subcommand."""
    top = _parser()
    sub = top.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return top.parse_args(argv)  # help, errors and leftover tokens, worded as before


def _check(args: argparse.Namespace) -> None:
    """Reject flag values that argparse lets through."""
    k = getattr(args, "k", None)
    if k is not None and k < 1:
        raise UsageError("--k must be >= 1")
    eps = getattr(args, "eps", None)
    if eps is not None:
        try:
            val = Fraction(eps)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--eps is not a number: {eps!r}")
        if val <= 0:
            raise UsageError("--eps must be > 0")
    alg = getattr(args, "alg", None)
    if alg in ("dtc", "vi") and not args.modulator:
        raise UsageError(f"--alg {alg} needs --modulator")
    if alg in ("dp", "oracle") and args.modulator:
        raise UsageError(f"--alg {alg} takes no --modulator")
    for cap in ("max_trees", "max_millis"):
        if getattr(args, cap, 1) < 1:
            raise UsageError(f"--{cap.replace('_', '-')} must be >= 1")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text (byte {exc.start})")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_graph(path: str):
    return formats.parse_gr(_read(path))


def _load_unweighted(path: str, what: str) -> Graph:
    g = _load_graph(path)
    if isinstance(g, DoubleWeightedGraph):
        raise UsageError(
            f"{what} needs an unweighted graph; expand the weights first or use `oracle`"
        )
    return g


def _load_modulator(path: str, G: Graph) -> frozenset[int]:
    verts = []
    for lineno, toks in formats._tokenized_lines(_read(path)):
        for t in toks:
            try:
                v = int(t)
            except ValueError:
                raise UsageError(f"{path} line {lineno}: not a vertex id: {t!r}")
            if not 1 <= v <= G.n:
                raise UsageError(f"{path} line {lineno}: vertex {v} out of range 1..{G.n}")
            verts.append(v - 1)
    if len(set(verts)) != len(verts):
        raise UsageError(f"{path}: repeated modulator vertex")
    return frozenset(verts)


def _jsonable(obj):
    if isinstance(obj, dict):
        if obj and all(isinstance(k, tuple) for k in obj):
            return [[list(k), _jsonable(v)] for k, v in sorted(obj.items())]
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(v) for v in obj)
    return obj


def _emit_doc(args: argparse.Namespace, doc: dict, summary: str) -> None:
    """Write a solution document; each form is formatted once, its bulky
    fields from their Rows."""
    if args.output:
        _write(args.output, formats.solution_to_text(doc))
        print(formats.to_line(doc | {"output": args.output}) if args.json
              else f"{summary}; wrote {args.output}")
    elif args.json:
        print(formats.to_line(doc))
    else:
        print(formats.solution_to_text(doc), end="")
        sys.stderr.write(summary + "\n")


def _cmd_solve(args: argparse.Namespace) -> int:
    """solve and oracle: the oracle subcommand is solve with alg="oracle"."""
    G = _load_graph(args.input)
    S = _load_modulator(args.modulator, G) if args.modulator else None
    k = args.k
    budget = EnumerationBudget(args.max_trees, args.max_millis)
    alg, got, tree = solve(G, k, S, args.alg, budget)
    if tree is None:
        doc = formats.build_infeasible(k, alg)
        _emit_doc(args, doc, f"no spanning tree with congestion <= {k}")
        return EXIT_NO
    if k is not None and got > k:
        doc = formats.build_infeasible(k, alg, stc=got)
        _emit_doc(args, doc, f"stc = {got} > {k} ({alg})")
        return EXIT_NO
    doc = formats.solution_document(G, tree, alg)
    summary = f"stc = {got} ({alg})"
    if k is not None:
        doc["target_k"] = k
        if alg == "dp":
            summary = f"found congestion {got} <= {k} ({alg})"
    _emit_doc(args, doc, summary)
    return EXIT_YES


def _cmd_approx(args: argparse.Namespace) -> int:
    G = _load_unweighted(args.input, "approx")
    got, tree = solve_approx_tw(G, args.eps)
    doc = formats.solution_document(G, tree, "approx", certified=False)
    doc["eps"] = args.eps
    assert doc["k"] == got
    _emit_doc(args, doc, f"congestion {got} within (1+{args.eps}) of optimal")
    return EXIT_YES


def _cmd_eval(args: argparse.Namespace) -> int:
    G = _load_graph(args.input)
    sol = formats.parse_solution(_read(args.tree))
    problem = formats.verify_solution(G, sol)
    ok = problem is None
    if args.json:
        print(json.dumps({"ok": ok, "problem": problem}))
    else:
        print(f"ok: tree re-evaluates to k = {sol['k']}" if ok
              else f"verification failed: {problem}")
    return EXIT_YES if ok else EXIT_NO


def _items(raw: str | None, flag: str) -> list[int]:
    if not raw:
        raise UsageError(f"gen: missing {flag}")
    try:
        return [int(t) for t in raw.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"{flag} must be comma-separated integers: {raw!r}")


def _cmd_gen(args: argparse.Namespace) -> int:
    if not args.output:
        raise UsageError("gen needs -o/--output PREFIX")
    if args.kind == "ubp":
        if args.t is None:
            raise UsageError("gen ubp needs --t")
        bundle = gen_ubp(args.t, _items(args.items, "--items"), args.family)
    elif args.kind == "3part":
        if args.bin_size is None:
            raise UsageError("gen 3part needs --bin")
        bundle = gen_3partition(_items(args.items, "--items"), args.bin_size)
    elif args.kind == "bsat":
        if not args.clauses:
            raise UsageError("gen bsat needs --clauses")
        clauses = [_items(part, "--clauses") for part in args.clauses.split(";")
                   if part.strip()]
        bundle = gen_bsat(clauses)
    else:
        n = args.n
        if n is None:
            raise UsageError("gen grid needs --n")
        graph = gen_grid(n)
        side = {
            "construction": "grid",
            "k": n,
            "provenance": {"construction": "grid", "n": n},
            "annotations": {"corners": list(grid_corners(n))},
        }
        return _write_gen(args, graph, side)
    side = {
        "construction": bundle.provenance["construction"],
        "k": bundle.k,
        "provenance": _jsonable(bundle.provenance),
        "annotations": _jsonable(bundle.annotations),
    }
    return _write_gen(args, bundle.graph, side)


def _write_gen(args: argparse.Namespace, graph: Graph, sidecar: dict) -> int:
    gr_path, json_path = args.output + ".gr", args.output + ".json"
    _write(gr_path, formats.write_gr(graph))
    _write(json_path, formats.to_text(sidecar, sort_keys=True))
    note = {"graph": gr_path, "sidecar": json_path, "n": graph.n, "m": graph.m,
            "k": sidecar["k"]}
    print(json.dumps(note) if args.json else
          f"wrote {gr_path} ({graph.n} vertices, {graph.m} edges) and {json_path}")
    return EXIT_YES


def _cmd_decompose(args: argparse.Namespace) -> int:
    G = _load_unweighted(args.input, "decompose")
    td = decompose(G)
    text = formats.write_td(td)
    if args.output:
        _write(args.output, text)
        note = {"width": td.width, "bags": len(td.bags), "output": args.output}
        print(json.dumps(note) if args.json
              else f"width {td.width}, {len(td.bags)} bags; wrote {args.output}")
    elif args.json:
        print(json.dumps({"width": td.width, "bags": len(td.bags), "td": text}))
    else:
        sys.stdout.write(text)
    return EXIT_YES


def _cmd_reduce(args: argparse.Namespace) -> int:
    if not args.output:
        raise UsageError("reduce needs -o/--output PREFIX")
    G = _load_unweighted(args.input, "reduce")
    H, trace = reduce_graph(G)
    gr_path, tr_path = args.output + ".gr", args.output + ".trace.json"
    _write(gr_path, formats.write_gr(H))
    doc = {
        "kind": trace.kind,
        "fes": fes_value(G),
        "original": {"n": G.n, "m": G.m},
        "kernel": {"n": H.n, "m": H.m},
        "peeled": formats.pair_rows(trace.peeled),
        "core_vertices": formats.id_rows(trace.core_vertices),
        "sections": formats.section_rows(trace.sections),
    }
    _write(tr_path, formats.to_text(doc))
    print(json.dumps({"graph": gr_path, "trace": tr_path} | doc["kernel"])
          if args.json else
          f"{trace.kind} reduction: {H.n} vertices, {H.m} edges; wrote {gr_path}, {tr_path}")
    return EXIT_YES


def _cmd_verify(args: argparse.Namespace) -> int:
    graphs: dict[str, Graph | DoubleWeightedGraph] = {}
    results: list[tuple[str, str | None]] = []
    for path in args.files:
        if path.endswith(".gr"):
            try:
                graphs[path] = formats.parse_gr(_read(path))
                results.append((path, None))
            except FormatError as exc:
                results.append((path, str(exc)))
    host = next(iter(graphs.values()), None)
    base = host.base if isinstance(host, DoubleWeightedGraph) else host
    for path in args.files:
        if path.endswith(".gr"):
            continue
        try:
            if path.endswith(".td"):
                td = formats.parse_td(_read(path))
                problem = validate_td(base, td) if base is not None else None
                note = None if base is not None else "parsed; no .gr given to check coverage"
                results.append((path, problem or note))
            elif path.endswith(".json"):
                sol = formats.parse_solution(_read(path))
                problem = formats.verify_solution(host, sol) if host is not None else None
                note = None if host is not None else "parsed; no .gr given to re-evaluate"
                results.append((path, problem))
                if problem is None and host is None:
                    results[-1] = (path, note)
            else:
                raise UsageError(f"{path}: unknown extension (want .gr, .td or .json)")
        except (FormatError, InvalidDecompositionError) as exc:
            results.append((path, str(exc)))
    ok = all(p is None or p.startswith("parsed;") for _, p in results)
    if args.json:
        print(json.dumps({"ok": ok, "files": [
            {"path": f, "problem": p} for f, p in results]}))
    else:
        for f, p in results:
            print(f"{f}: ok" if p is None else f"{f}: {p}")
    return EXIT_YES if ok else EXIT_NO


_DISPATCH = {
    "solve": _cmd_solve,
    "approx": _cmd_approx,
    "oracle": _cmd_solve,
    "eval": _cmd_eval,
    "gen": _cmd_gen,
    "decompose": _cmd_decompose,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
}


def _fail(msg: str, code: int, json_mode: bool) -> int:
    sys.stderr.write(json.dumps({"error": msg, "exit": code}) + "\n"
                     if json_mode else f"error: {msg}\n")
    return code


def main(argv=None) -> int:
    """Run one request with the cyclic collector paused; see the module docstring."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _request(argv)
    finally:
        if enabled:
            gc.enable()


def _request(argv) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    json_mode = "--json" in argv
    try:
        args = _parse(argv)
    except SystemExit:  # -h or --help, printed
        return EXIT_YES
    except _ArgError as exc:
        parser, msg = exc.args
        if json_mode:
            return _fail(msg, EXIT_USAGE, True)
        sys.stderr.write(f"{parser.format_usage()}{parser.prog}: error: {msg}\n")
        return EXIT_USAGE
    try:
        _check(args)
        return _DISPATCH[args.command](args)
    except BudgetExceededError as exc:
        return _fail(str(exc), EXIT_BUDGET, json_mode)
    except (
        FormatError,
        GraphError,
        InvalidDecompositionError,
        InvalidSpanningTreeError,
        UsageError,
        OSError,
    ) as exc:
        return _fail(str(exc), EXIT_USAGE, json_mode)


if __name__ == "__main__":
    sys.exit(main())
