"""Command line interface tying formats, solvers, generators and verification.

Subcommands: solve (auto-selects a solver), approx, oracle, eval, gen,
decompose, reduce, verify.  Exit codes: 0 success or "yes", 1 certified "no"
or failed verification, 2 usage or input error, 3 enumeration budget
exceeded.  With --json, results go to stdout and errors to stderr as JSON.

Every success path re-evaluates its tree with congestion_report before
reporting, so a "yes" is always backed by a checked witness.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from . import formats
from .decomposition import decompose, validate_td
from .dp import solve_approx_tw, solve_exact_tw, solve_stc_tw
from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    FormatError,
    GraphError,
    InvalidCertificateError,
    InvalidDecompositionError,
    InvalidSpanningTreeError,
)
from .graph import DoubleWeightedGraph, Graph, SpanningTree, congestion_report
from .oracle import DEFAULT_MAX_MILLIS, DEFAULT_MAX_TREES, EnumerationBudget, stc_exact
from .reductions import gen_3partition, gen_bsat, gen_grid, gen_ubp, grid_corners
from .structural import fes_value, reduce_graph, solve_dtc, solve_fes, solve_vi

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# auto-selection thresholds; override with --oracle-cap / --fes-cap
ORACLE_CAP = 12
FES_CAP = 12


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: one command plus the flags it may legally use."""

    command: str
    input: str | None = None
    output: str | None = None
    alg: str = "auto"
    k: int | None = None
    eps: str | None = None
    modulator: str | None = None
    seed: int = 0
    max_trees: int | None = None
    max_millis: int | None = None
    threads: int = 1
    json_mode: bool = False
    extra: dict = field(default_factory=dict)


class UsageError(ValueError):
    pass


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="stc", description="Spanning tree congestion toolkit"
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        p.add_argument("--json", action="store_true", help="JSON results and errors")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized components (current solvers are deterministic)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker cap (accepted for compatibility; runs single-threaded)")
        if output:
            p.add_argument("-o", "--output", help="write the result here instead of stdout")

    def budget(p):
        p.add_argument("--max-trees", type=int, help="enumeration cap (env STC_MAX_TREES)")
        p.add_argument("--max-millis", type=int, help="time cap in ms (env STC_MAX_MILLIS)")

    p = sub.add_parser("solve", help="exact spanning tree congestion")
    p.add_argument("input", help=".gr graph file")
    p.add_argument("--alg", default="auto",
                   choices=["auto", "oracle", "dp", "fes", "dtc", "vi"])
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


def _config(args: argparse.Namespace) -> RunConfig:
    known = {
        "command", "input", "output", "alg", "k", "eps", "modulator",
        "seed", "max_trees", "max_millis", "threads", "json",
    }
    extra = {k: v for k, v in vars(args).items() if k not in known}
    cfg = RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        output=getattr(args, "output", None),
        alg=getattr(args, "alg", "auto"),
        k=getattr(args, "k", None),
        eps=getattr(args, "eps", None),
        modulator=getattr(args, "modulator", None),
        seed=args.seed,
        max_trees=getattr(args, "max_trees", None),
        max_millis=getattr(args, "max_millis", None),
        threads=max(1, args.threads),
        json_mode=args.json,
        extra=extra,
    )
    if cfg.k is not None and cfg.k < 1:
        raise UsageError("--k must be >= 1")
    if cfg.eps is not None:
        from fractions import Fraction

        try:
            val = Fraction(cfg.eps)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--eps is not a number: {cfg.eps!r}")
        if val <= 0:
            raise UsageError("--eps must be > 0")
    if cfg.alg in ("dtc", "vi") and not cfg.modulator:
        raise UsageError(f"--alg {cfg.alg} needs --modulator")
    for cap in ("max_trees", "max_millis"):
        v = getattr(cfg, cap)
        if v is not None and v < 1:
            raise UsageError(f"--{cap.replace('_', '-')} must be >= 1")
    return cfg


def _budget(cfg: RunConfig) -> EnumerationBudget:
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
        pick(cfg.max_trees, "STC_MAX_TREES", DEFAULT_MAX_TREES),
        pick(cfg.max_millis, "STC_MAX_MILLIS", DEFAULT_MAX_MILLIS),
    )


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}")


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


def _emit_doc(cfg: RunConfig, doc: dict, summary: str) -> None:
    text = formats.solution_to_text(doc)
    if cfg.output:
        _write(cfg.output, text)
        print(json.dumps(doc | {"output": cfg.output}) if cfg.json_mode
              else f"{summary}; wrote {cfg.output}")
    else:
        print(text if not cfg.json_mode else json.dumps(doc), end="" if not cfg.json_mode else "\n")
        if not cfg.json_mode:
            sys.stderr.write(summary + "\n")


def _is_cycle(G: Graph) -> bool:
    return G.n >= 3 and G.m == G.n and all(G.degree(v) == 2 for v in range(G.n))


def _choose_alg(G: Graph, cfg: RunConfig, S: frozenset[int] | None) -> str:
    if cfg.alg != "auto":
        return cfg.alg
    if G.is_tree():
        return "trivial"
    if _is_cycle(G):
        return "cycle"
    if G.n <= cfg.extra.get("oracle_cap", ORACLE_CAP):
        return "oracle"
    if fes_value(G) <= cfg.extra.get("fes_cap", FES_CAP):
        return "fes"
    if S is not None:
        rest = sorted(set(range(G.n)) - S)
        clique = all(
            G.has_edge(rest[i], rest[j])
            for i in range(len(rest))
            for j in range(i + 1, len(rest))
        )
        return "dtc" if clique else "vi"
    return "dp"


def _cmd_solve(cfg: RunConfig) -> int:
    G = _load_unweighted(cfg.input, "solve")
    S = _load_modulator(cfg.modulator, G) if cfg.modulator else None
    alg = _choose_alg(G, cfg, S)
    if alg in ("dtc", "vi") and S is None:
        raise UsageError(f"--alg {alg} needs --modulator")

    kstar: int | None = None
    tree: SpanningTree | None = None
    if alg == "trivial":
        tree = SpanningTree(G, G.edges)
        kstar = 1 if G.n > 1 else 0
    elif alg == "cycle":
        if not _is_cycle(G):
            raise UsageError("--alg cycle needs a cycle graph")
        tree = SpanningTree(G, G.edges - {max(G.edges)})
        kstar = 2
    elif alg == "oracle":
        kstar, tree = stc_exact(G, _budget(cfg))
    elif alg == "fes":
        kstar, tree = solve_fes(G, _budget(cfg))
    elif alg == "dtc":
        kstar, tree = solve_dtc(G, S)
    elif alg == "vi":
        kstar, tree = solve_vi(G, S)
    elif alg == "dp":
        if cfg.k is not None:
            T = solve_exact_tw(G, cfg.k)
            if T is None:
                doc = formats.build_infeasible(cfg.k, alg)
                _emit_doc(cfg, doc, f"no spanning tree with congestion <= {cfg.k}")
                return EXIT_NO
            got = congestion_report(G, T).max_congestion
            doc = formats.build_solution(G, T, alg)
            doc["target_k"] = cfg.k
            _emit_doc(cfg, doc, f"found congestion {got} <= {cfg.k} ({alg})")
            return EXIT_YES
        kstar, tree = solve_stc_tw(G)
    else:
        raise UsageError(f"unknown algorithm {alg!r}")

    got = congestion_report(G, tree).max_congestion
    if got != kstar:
        raise AssertionError(f"{alg} returned k={kstar} but the tree evaluates to {got}")
    if cfg.k is not None and kstar > cfg.k:
        doc = formats.build_infeasible(cfg.k, alg, stc=kstar)
        _emit_doc(cfg, doc, f"stc = {kstar} > {cfg.k} ({alg})")
        return EXIT_NO
    doc = formats.build_solution(G, tree, alg)
    if cfg.k is not None:
        doc["target_k"] = cfg.k
    _emit_doc(cfg, doc, f"stc = {kstar} ({alg})")
    return EXIT_YES


def _cmd_approx(cfg: RunConfig) -> int:
    G = _load_unweighted(cfg.input, "approx")
    got, tree = solve_approx_tw(G, cfg.eps)
    doc = formats.build_solution(G, tree, "approx", certified=False)
    doc["eps"] = cfg.eps
    assert doc["k"] == got
    _emit_doc(cfg, doc, f"congestion {got} within (1+{cfg.eps}) of optimal")
    return EXIT_YES


def _cmd_oracle(cfg: RunConfig) -> int:
    G = _load_graph(cfg.input)
    kstar, tree = stc_exact(G, _budget(cfg))
    if cfg.k is not None and kstar > cfg.k:
        doc = formats.build_infeasible(cfg.k, "oracle", stc=kstar)
        _emit_doc(cfg, doc, f"stc = {kstar} > {cfg.k} (oracle)")
        return EXIT_NO
    doc = formats.build_solution(G, tree, "oracle")
    if cfg.k is not None:
        doc["target_k"] = cfg.k
    _emit_doc(cfg, doc, f"stc = {kstar} (oracle)")
    return EXIT_YES


def _cmd_eval(cfg: RunConfig) -> int:
    G = _load_graph(cfg.input)
    sol = formats.parse_solution(_read(cfg.extra["tree"]))
    problem = formats.verify_solution(G, sol)
    ok = problem is None
    if cfg.json_mode:
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


def _cmd_gen(cfg: RunConfig) -> int:
    kind = cfg.extra["kind"]
    if not cfg.output:
        raise UsageError("gen needs -o/--output PREFIX")
    if kind == "ubp":
        if cfg.extra.get("t") is None:
            raise UsageError("gen ubp needs --t")
        bundle = gen_ubp(cfg.extra["t"], _items(cfg.extra.get("items"), "--items"),
                         cfg.extra.get("family", "stars"))
    elif kind == "3part":
        if cfg.extra.get("bin_size") is None:
            raise UsageError("gen 3part needs --bin")
        bundle = gen_3partition(_items(cfg.extra.get("items"), "--items"),
                                cfg.extra["bin_size"])
    elif kind == "bsat":
        raw = cfg.extra.get("clauses")
        if not raw:
            raise UsageError("gen bsat needs --clauses")
        clauses = [_items(part, "--clauses") for part in raw.split(";") if part.strip()]
        bundle = gen_bsat(clauses)
    else:
        n = cfg.extra.get("n")
        if n is None:
            raise UsageError("gen grid needs --n")
        graph = gen_grid(n)
        side = {
            "construction": "grid",
            "k": n,
            "provenance": {"construction": "grid", "n": n},
            "annotations": {"corners": list(grid_corners(n))},
        }
        return _write_gen(cfg, graph, side)
    side = {
        "construction": bundle.provenance["construction"],
        "k": bundle.k,
        "provenance": _jsonable(bundle.provenance),
        "annotations": _jsonable(bundle.annotations),
    }
    return _write_gen(cfg, bundle.graph, side)


def _write_gen(cfg: RunConfig, graph: Graph, sidecar: dict) -> int:
    gr_path, json_path = cfg.output + ".gr", cfg.output + ".json"
    _write(gr_path, formats.write_gr(graph))
    _write(json_path, json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    note = {"graph": gr_path, "sidecar": json_path, "n": graph.n, "m": graph.m,
            "k": sidecar["k"]}
    print(json.dumps(note) if cfg.json_mode else
          f"wrote {gr_path} ({graph.n} vertices, {graph.m} edges) and {json_path}")
    return EXIT_YES


def _cmd_decompose(cfg: RunConfig) -> int:
    G = _load_unweighted(cfg.input, "decompose")
    td = decompose(G, cfg.extra.get("mode", "auto"))
    text = formats.write_td(td)
    if cfg.output:
        _write(cfg.output, text)
        note = {"width": td.width, "bags": len(td.bags), "output": cfg.output}
        print(json.dumps(note) if cfg.json_mode
              else f"width {td.width}, {len(td.bags)} bags; wrote {cfg.output}")
    else:
        sys.stdout.write(text)
    return EXIT_YES


def _cmd_reduce(cfg: RunConfig) -> int:
    if not cfg.output:
        raise UsageError("reduce needs -o/--output PREFIX")
    G = _load_unweighted(cfg.input, "reduce")
    H, trace = reduce_graph(G)
    gr_path, tr_path = cfg.output + ".gr", cfg.output + ".trace.json"
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
          if cfg.json_mode else
          f"{trace.kind} reduction: {H.n} vertices, {H.m} edges; wrote {gr_path}, {tr_path}")
    return EXIT_YES


def _cmd_verify(cfg: RunConfig) -> int:
    files = cfg.extra["files"]
    graphs: dict[str, Graph | DoubleWeightedGraph] = {}
    results: list[tuple[str, str | None]] = []
    for path in files:
        if path.endswith(".gr"):
            try:
                graphs[path] = formats.parse_gr(_read(path))
                results.append((path, None))
            except FormatError as exc:
                results.append((path, str(exc)))
    host = next(iter(graphs.values()), None)
    base = host.base if isinstance(host, DoubleWeightedGraph) else host
    for path in files:
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
    if cfg.json_mode:
        print(json.dumps({"ok": ok, "files": [
            {"path": f, "problem": p} for f, p in results]}))
    else:
        for f, p in results:
            print(f"{f}: ok" if p is None else f"{f}: {p}")
    return EXIT_YES if ok else EXIT_NO


_DISPATCH = {
    "solve": _cmd_solve,
    "approx": _cmd_approx,
    "oracle": _cmd_oracle,
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
        cfg = _config(args)
        return _DISPATCH[cfg.command](cfg)
    except BudgetExceededError as exc:
        return _fail(str(exc), EXIT_BUDGET, json_mode)
    except (
        FormatError,
        GraphError,
        InvalidCertificateError,
        InvalidDecompositionError,
        InvalidSpanningTreeError,
        UsageError,
        ValueError,
        OSError,
    ) as exc:
        return _fail(str(exc), EXIT_USAGE, json_mode)


if __name__ == "__main__":
    sys.exit(main())
