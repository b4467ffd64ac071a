"""Command line interface: parse arguments, call the library, print results.

Subcommands: solve (routed by `stc.solve`), approx, oracle (solve with the
oracle, weighted input allowed), eval, gen, decompose, reduce, verify.  Exit
codes: 0 success or "yes", 1 certified "no" or failed verification, 2 usage
or input error, 3 enumeration budget exceeded.  Any other error is a fault
and propagates.  With --json, results go to stdout and errors to stderr as
JSON.

Every reported tree has been re-evaluated with congestion_report, so a "yes"
is always backed by a checked witness.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import formats
from .decomposition import EXACT_SMALL_MAX_N, decompose, validate_td
from .dp import solve_approx_tw
from .errors import (
    BudgetExceededError,
    FormatError,
    GraphError,
    InvalidCertificateError,
    InvalidDecompositionError,
    InvalidSpanningTreeError,
)
from .graph import DoubleWeightedGraph, Graph
from .oracle import DEFAULT_MAX_MILLIS, DEFAULT_MAX_TREES, ORACLE_CAP, EnumerationBudget
from .reductions import gen_3partition, gen_bsat, gen_grid, gen_ubp, grid_corners
from .route import ALGORITHMS, FES_CAP, solve
from .structural import fes_value, reduce_graph

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    pass


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="stc", description="Spanning tree congestion toolkit"
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        p.add_argument("--json", action="store_true", help="JSON results and errors")
        if output:
            p.add_argument("-o", "--output", help="write the result here instead of stdout")

    def budget(p):
        p.add_argument("--max-trees", type=int, help="enumeration cap (env STC_MAX_TREES)")
        p.add_argument("--max-millis", type=int, help="time cap in ms (env STC_MAX_MILLIS)")

    p = sub.add_parser("solve", help="exact spanning tree congestion")
    p.add_argument("input", help=".gr graph file")
    p.add_argument("--alg", default="auto", choices=ALGORITHMS)
    p.add_argument("--k", type=int, help="decide stc <= k instead of optimizing")
    p.add_argument("--modulator", help="file with 1-indexed modulator vertices")
    p.add_argument("--oracle-cap", type=int, default=ORACLE_CAP,
                   help="auto: brute force at or below this many vertices")
    p.add_argument("--fes-cap", type=int, default=FES_CAP,
                   help="auto: kernel enumeration at or below this feedback edge count")
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
    p.set_defaults(alg="oracle", modulator=None, oracle_cap=ORACLE_CAP, fes_cap=FES_CAP)

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
    p.add_argument("--mode", default="auto", choices=["auto", "heuristic", "exact_small"])
    common(p)

    p = sub.add_parser("reduce", help="feedback-edge kernel: .gr plus trace JSON")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("verify", help="validate .gr / .td / solution files")
    p.add_argument("files", nargs="+")
    common(p, output=False)
    return top


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
    for cap in ("max_trees", "max_millis"):
        v = getattr(args, cap, None)
        if v is not None and v < 1:
            raise UsageError(f"--{cap.replace('_', '-')} must be >= 1")


def _budget(args: argparse.Namespace) -> EnumerationBudget:
    def pick(flag, env, default):
        if flag is not None:
            return flag
        raw = os.environ.get(env)
        if raw is None:
            return default
        try:
            val = int(raw)
        except ValueError:
            raise UsageError(f"{env} is not an integer: {raw!r}")
        if val < 1:
            raise UsageError(f"{env} must be >= 1")
        return val

    return EnumerationBudget(
        pick(args.max_trees, "STC_MAX_TREES", DEFAULT_MAX_TREES),
        pick(args.max_millis, "STC_MAX_MILLIS", DEFAULT_MAX_MILLIS),
    )


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
    for lineno, toks in enumerate(_read(path).splitlines(), start=1):
        toks = toks.split()
        if not toks or toks[0] == "c":
            continue
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
    if args.output:
        _write(args.output, formats.solution_to_text(doc))
        print(json.dumps(doc | {"output": args.output}) if args.json
              else f"{summary}; wrote {args.output}")
    elif args.json:
        print(json.dumps(doc))
    else:
        print(formats.solution_to_text(doc), end="")
        sys.stderr.write(summary + "\n")


def _cmd_solve(args: argparse.Namespace) -> int:
    """solve and oracle: the oracle subcommand is solve with alg="oracle"."""
    G = _load_graph(args.input)
    S = _load_modulator(args.modulator, G) if args.modulator else None
    k = args.k
    alg, got, tree = solve(G, k, S, args.alg, _budget(args), args.oracle_cap, args.fes_cap)
    if tree is None:
        doc = formats.build_infeasible(k, alg)
        _emit_doc(args, doc, f"no spanning tree with congestion <= {k}")
        return EXIT_NO
    if k is not None and got > k:
        doc = formats.build_infeasible(k, alg, stc=got)
        _emit_doc(args, doc, f"stc = {got} > {k} ({alg})")
        return EXIT_NO
    doc = formats.build_solution(G, tree, alg)
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
    doc = formats.build_solution(G, tree, "approx", certified=False)
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
    _write(json_path, json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    note = {"graph": gr_path, "sidecar": json_path, "n": graph.n, "m": graph.m,
            "k": sidecar["k"]}
    print(json.dumps(note) if args.json else
          f"wrote {gr_path} ({graph.n} vertices, {graph.m} edges) and {json_path}")
    return EXIT_YES


def _cmd_decompose(args: argparse.Namespace) -> int:
    G = _load_unweighted(args.input, "decompose")
    if args.mode == "exact_small" and G.n > EXACT_SMALL_MAX_N:
        raise UsageError(f"--mode exact_small only handles n <= {EXACT_SMALL_MAX_N}")
    td = decompose(G, args.mode)
    text = formats.write_td(td)
    if args.output:
        _write(args.output, text)
        note = {"width": td.width, "bags": len(td.bags), "output": args.output}
        print(json.dumps(note) if args.json
              else f"width {td.width}, {len(td.bags)} bags; wrote {args.output}")
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
        "peeled": [[a + 1, b + 1] for a, b in trace.peeled],
        "core_vertices": [v + 1 for v in trace.core_vertices],
        "sections": [
            [[e[0] + 1, e[1] + 1], [[a + 1, b + 1] for a, b in path]]
            for e, path in trace.sections
        ],
    }
    _write(tr_path, json.dumps(doc, indent=2) + "\n")
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
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    json_mode = "--json" in argv
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        _check(args)
        return _DISPATCH[args.command](args)
    except BudgetExceededError as exc:
        return _fail(str(exc), EXIT_BUDGET, json_mode)
    except (
        FormatError,
        GraphError,
        InvalidCertificateError,
        InvalidDecompositionError,
        InvalidSpanningTreeError,
        UsageError,
        OSError,
    ) as exc:
        return _fail(str(exc), EXIT_USAGE, json_mode)


if __name__ == "__main__":
    sys.exit(main())
