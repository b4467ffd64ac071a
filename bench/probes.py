"""The traced run: request spans, per-module probe spans, per-layer metrics.

The program has no spans of its own yet, so the spans are recorded here,
around calls into the modules' public functions.  For each request of the
traced pass:

1. a ``request`` span times ``cli.main(argv)`` with the same argv as the
   untraced pass;
2. probe spans, children of that request and sharing its id, call the public
   function of each module the request's route used, on the same input:
   ``parse_gr``, then the routed solver entry (``stc_exact``, ``solve_fes``,
   ``solve_dtc``, ``solve_vi``, ``solve_stc_tw`` or ``solve_approx_tw``),
   then ``congestion_report`` and ``build_solution``; an ``eval`` request
   gets ``parse_gr``, ``parse_solution`` and ``verify_solution``.  Below the
   solver span come ``default_nice_decomposition`` (DP routes),
   ``solve_exact_tw`` at k = stc and k = stc - 1 (the dp route), and
   ``reduce_graph``, ``stc_exact`` on the kernel and ``lift_tree`` (the fes
   route).

``cli.self_ms`` is each request span minus its direct probe spans.  Spans
stay in memory and are written out when the run ends.  All times are totals
over the traced pass, scaled like the end-to-end times (see ``run.Clock``);
a layer a workload never routes through reads 0.
"""
from __future__ import annotations

import gc
import json
import time

PER_LAYER = (
    ("cli.self_ms", "ms"),
    ("cli.route.trivial", "count"),
    ("cli.route.cycle", "count"),
    ("cli.route.oracle", "count"),
    ("cli.route.fes", "count"),
    ("cli.route.dtc", "count"),
    ("cli.route.vi", "count"),
    ("cli.route.dp", "count"),
    ("cli.route.approx", "count"),
    ("formats.parse_ms", "ms"),
    ("formats.emit_ms", "ms"),
    ("formats.verify_ms", "ms"),
    ("formats.bytes_in", "bytes"),
    ("graph.report_ms", "ms"),
    ("graph.report_edges_per_s", "1/s"),
    ("oracle.ms", "ms"),
    ("oracle.trees", "count"),
    ("oracle.trees_per_s", "1/s"),
    ("decomposition.ms", "ms"),
    ("decomposition.width.max", "count"),
    ("decomposition.height.max", "count"),
    ("decomposition.nodes.introduce", "count"),
    ("decomposition.nodes.forget", "count"),
    ("decomposition.nodes.join", "count"),
    ("dp.solve_ms", "ms"),
    ("dp.decide_yes_ms", "ms"),
    ("dp.decide_no_ms", "ms"),
    ("dp.approx_ms", "ms"),
    ("fes.solve_ms", "ms"),
    ("fes.reduce_ms", "ms"),
    ("fes.lift_ms", "ms"),
    ("fes.kernel_oracle_ms", "ms"),
    ("fes.kernel_n.sum", "count"),
    ("fes.kernel_m.sum", "count"),
    ("dtc.ms", "ms"),
    ("vi.ms", "ms"),
    ("reductions.gen_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.probe_failures", "count"),
)

# span name -> the metric its duration adds to
SPAN_METRIC = {
    "parse_gr": "formats.parse_ms",
    "parse_solution": "formats.verify_ms",
    "verify_solution": "formats.verify_ms",
    "build_solution": "formats.emit_ms",
    "congestion_report": "graph.report_ms",
    "stc_exact": "oracle.ms",
    "solve_fes": "fes.solve_ms",
    "solve_dtc": "dtc.ms",
    "solve_vi": "vi.ms",
    "solve_stc_tw": "dp.solve_ms",
    "solve_approx_tw": "dp.approx_ms",
    "default_nice_decomposition": "decomposition.ms",
    "decide_yes": "dp.decide_yes_ms",
    "decide_no": "dp.decide_no_ms",
    "reduce_graph": "fes.reduce_ms",
    "kernel_stc_exact": "fes.kernel_oracle_ms",
    "lift_tree": "fes.lift_ms",
}


class Tracer:
    """Spans in memory: id, request id, parent id, name, start, end, error."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[dict] = []
        self.failed: dict[str, int] = {}

    def span(self, name: str, req: int, parent: int | None, fn, *args):
        """Time ``fn(*args)``; returns (span id, result or None on error)."""
        self.clock.tick()
        t0 = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # a failing probe is counted, not fatal
            result, error = None, repr(exc)
        sid = self.record(name, req, parent, t0, time.perf_counter(), error)
        if error:
            self.failed[name] = self.failed.get(name, 0) + 1
        return sid, result

    def record(self, name, req, parent, start, end, error=None) -> int:
        """Append a span; a span with no request id starts a new request."""
        sid = len(self.spans)
        self.spans.append({"id": sid, "req": sid if req is None else req, "parent": parent,
                           "name": name, "start": start, "end": end, "error": error})
        return sid

    def dur(self, sid: int) -> float:
        return self.spans[sid]["end"] - self.spans[sid]["start"]


def probe(tracer: Tracer, rid: int, req, doc: dict, counters: dict) -> None:
    """Record the probe spans of one answered request."""
    from stc import (
        SpanningTree,
        build_solution,
        congestion_report,
        count_spanning_trees,
        default_nice_decomposition,
        lift_tree,
        parse_gr,
        parse_solution,
        reduce_graph,
        solve_approx_tw,
        solve_dtc,
        solve_exact_tw,
        solve_fes,
        solve_stc_tw,
        solve_vi,
        stc_exact,
        verify_solution,
    )

    def span(name, fn, *args, parent=rid):
        return tracer.span(name, rid, parent, fn, *args)

    with open(req.inst.path, encoding="utf-8") as fh:
        text = fh.read()
    counters["formats.bytes_in"] += len(text.encode())
    _, G = span("parse_gr", parse_gr, text)
    if G is None:
        return
    if req.kind == "eval":
        with open(req.sol_path, encoding="utf-8") as fh:
            _, sol = span("parse_solution", parse_solution, fh.read())
        span("verify_solution", verify_solution, G, sol)
        return

    route = doc["algorithm"]
    S = frozenset(req.inst.modulator or ())
    entry = {
        "oracle": (stc_exact, (G,)),
        "fes": (solve_fes, (G,)),
        "dtc": (solve_dtc, (G, S)),
        "vi": (solve_vi, (G, S)),
        "dp": (solve_stc_tw, (G,)),
        "approx": (solve_approx_tw, (G, req.eps)),
    }.get(route)
    if entry is None:  # trivial and cycle answers need no solver
        tree = SpanningTree(G, frozenset((u - 1, v - 1) for u, v in doc["edges"]))
    else:
        fn, args = entry
        sid, res = span(fn.__name__, fn, *args)
        if res is None:
            return
        k, tree = res
        if route == "oracle":
            counters["oracle.trees"] += count_spanning_trees(G)
        if route in ("dp", "approx", "vi"):
            _, ntd = span("default_nice_decomposition", default_nice_decomposition, G,
                          parent=sid)
            if ntd is not None:
                counters["decomposition.width.max"] = max(
                    counters["decomposition.width.max"], ntd.width)
                counters["decomposition.height.max"] = max(
                    counters["decomposition.height.max"], ntd.height)
                for nd in ntd.nodes:
                    key = f"decomposition.nodes.{nd.kind}"
                    if key in counters:
                        counters[key] += 1
                if route == "dp":
                    span("decide_yes", solve_exact_tw, G, k, ntd, parent=sid)
                    if k > 1:
                        span("decide_no", solve_exact_tw, G, k - 1, ntd, parent=sid)
        if route == "fes":
            _, red = span("reduce_graph", reduce_graph, G, parent=sid)
            if red is not None:
                core, trace = red
                counters["fes.kernel_n.sum"] += core.n
                counters["fes.kernel_m.sum"] += core.m
                _, kres = span("kernel_stc_exact", stc_exact, core, parent=sid)
                if kres is not None:
                    span("lift_tree", lift_tree, trace, kres[1].edges, parent=sid)
    _, rep = span("congestion_report", congestion_report, G, tree)
    if rep is not None:
        counters["report_edges"] += G.m
    span("build_solution", build_solution, G, tree, route)


def traced(run, spans_dir) -> tuple[dict, dict]:
    """One untraced pass, then one traced pass; returns (metrics, info).

    The spans are written to ``spans_dir`` (a ``pathlib.Path``) at the end.
    """
    run.setup()
    gc.freeze()
    reqs = run.requests
    clock = run.clock
    base = []
    for i, req in enumerate(reqs):
        clock.tick()
        base.append(run.request(i, req)[0])

    tracer = Tracer(clock)
    counters = {name: 0 for name, unit in PER_LAYER if unit != "ms"}
    counters["report_edges"] = 0
    request_spans = []
    for i, req in enumerate(reqs):
        clock.tick()
        t0 = time.perf_counter()
        dt, out, rc = run.request(i, req)
        rid = tracer.record("request", None, None, t0, t0 + dt)
        request_spans.append(rid)
        if rc != 0:
            continue
        doc = json.loads(out)
        if req.kind != "eval":
            route = f"cli.route.{doc['algorithm']}"
            if route in counters:
                counters[route] += 1
        probe(tracer, rid, req, doc, counters)

    ms = {name: 0.0 for name, unit in PER_LAYER if unit == "ms"}
    direct = {rid: 0.0 for rid in request_spans}
    scale = clock.scale()
    for sp in tracer.spans:
        dur = scale * tracer.dur(sp["id"])
        metric = SPAN_METRIC.get(sp["name"])
        if metric:
            ms[metric] += 1000 * dur
        if sp["parent"] in direct:
            direct[sp["parent"]] += dur
    traced_total = sum(tracer.dur(rid) for rid in request_spans)
    ms["cli.self_ms"] = 1000 * sum(scale * tracer.dur(rid) - direct[rid] for rid in request_spans)
    ms["reductions.gen_ms"] = 1000 * run.gen_s

    metrics = {**ms, **counters}
    metrics["graph.report_edges_per_s"] = (
        counters["report_edges"] / (ms["graph.report_ms"] / 1000) if ms["graph.report_ms"] else 0.0)
    metrics["oracle.trees_per_s"] = (
        counters["oracle.trees"] / (ms["oracle.ms"] / 1000) if ms["oracle.ms"] else 0.0)
    metrics["trace.overhead_share"] = (traced_total - sum(base)) / sum(base)
    metrics["trace.probe_failures"] = sum(tracer.failed.values())
    for layer, count in tracer.failed.items():
        run.failures.append(f"probe {layer} failed {count} time(s)")

    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / f"spans-{run.workload}-seed{run.seed}.json"
    spans_path.write_text(json.dumps(tracer.spans) + "\n")
    info = {"requests_per_pass": len(reqs), "probe_failures": tracer.failed,
            "calibration_scale": scale, "spans": str(spans_path)}
    return metrics, info
