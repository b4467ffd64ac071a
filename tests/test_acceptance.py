"""End-to-end acceptance checks, one printed verdict line per criterion.

Each test regenerates its instance set from a fixed seed, collects every
violation instead of stopping at the first, and prints a single
"ACCEPTANCE n: PASS/FAIL" line through the capture-disabled stream so the
verdicts are visible in any pytest run mode.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from conftest import (
    complete_bipartite,
    gap_graphs,
    random_connected_graph,
    suite_graphs,
    vertex_integrity_set,
)
from dp_checks import check_approx_invariant
from stc.dp import (
    solve_approx_tw,
    solve_cw_winwin,
    solve_stc_tw,
)
from stc.graph import (
    DoubleWeightedGraph,
    Graph,
    SpanningTree,
    congestion_report,
    edge_key,
)
from stc.oracle import stc_exact
from stc.reductions import (
    expand_double_weighted,
    gen_3partition,
    gen_bsat,
    gen_grid,
    gen_ubp,
    witness_tree,
    witness_tree_weighted,
)
from stc.structural import (
    fes_value,
    reduce_graph,
    solve_dtc,
    solve_fes,
    solve_vi,
)

DEMO = [[1, -2, 3], [1, 2, -3], [-1, -2, 3], [-1, 2, -3]]


def _report(capsys, num: int, errs: list[str], detail: str) -> None:
    verdict = "PASS" if not errs else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {verdict} - {detail}")
    assert not errs, f"criterion {num}: " + "; ".join(errs[:5])


def _reeval(G, T) -> int:
    return congestion_report(G, T).max_congestion


def _clique_modulator(G: Graph, cap: int = 3):
    for size in range(cap + 1):
        for S in itertools.combinations(range(G.n), size):
            rest = [v for v in range(G.n) if v not in S]
            if all(
                G.has_edge(rest[i], rest[j])
                for i in range(len(rest))
                for j in range(i + 1, len(rest))
            ):
                return frozenset(S)
    return None


def test_criterion_1_oracle_equivalence(capsys):
    errs: list[str] = []
    counts = {"dp": 0, "fes": 0, "dtc": 0, "vi": 0}
    for idx, G in enumerate(suite_graphs()):
        kstar, Tor = stc_exact(G)
        if _reeval(G, Tor) != kstar:
            errs.append(f"#{idx}: oracle tree off")

        runs = [("dp", solve_stc_tw(G))]
        if fes_value(G) <= 4:
            runs.append(("fes", solve_fes(G)))
        S = _clique_modulator(G)
        if S is not None:
            runs.append(("dtc", solve_dtc(G, S)))
        Svi = vertex_integrity_set(G, 4)
        if Svi is not None:
            runs.append(("vi", solve_vi(G, Svi)))
        for name, (k, T) in runs:
            counts[name] += 1
            if k != kstar:
                errs.append(f"#{idx}: {name} k={k} != {kstar}")
            elif _reeval(G, T) != kstar:
                errs.append(f"#{idx}: {name} tree re-evaluates off k*")
    for name in ("fes", "dtc", "vi"):
        if counts[name] == 0:
            errs.append(f"no instances exercised {name}")
    _report(
        capsys, 1, errs,
        f"200 instances vs oracle; solver runs dp={counts['dp']} "
        f"fes={counts['fes']} dtc={counts['dtc']} vi={counts['vi']}",
    )


def test_criterion_2_grid_values(capsys):
    errs: list[str] = []
    for n in (2, 3):
        k, T = stc_exact(gen_grid(n))
        if k != n:
            errs.append(f"oracle grid{n}: {k}")
    for n in (2, 3, 4):
        G = gen_grid(n)
        k, T = solve_stc_tw(G)
        if k != n or _reeval(G, T) != n:
            errs.append(f"dp grid{n}: {k}")
    _report(capsys, 2, errs, "stc(n x n grid) = n; oracle n in {2,3}, dp n in {2,3,4}")


def test_criterion_3_approx_guarantee(capsys):
    errs: list[str] = []
    invariant_runs = 0
    for idx, G in enumerate(suite_graphs()):
        kstar, _ = stc_exact(G)
        for eps in ("0.1", "0.5"):
            got, T = solve_approx_tw(G, eps)
            bound = math.ceil((1 + Fraction(eps)) * kstar)
            if _reeval(G, T) != got:
                errs.append(f"#{idx} eps={eps}: tree re-evaluates off")
            if got > bound:
                errs.append(f"#{idx} eps={eps}: {got} > ceil bound {bound}")
            if G.n <= 8 and invariant_runs < 80:
                invariant_runs += 1
                try:
                    check_approx_invariant(G, eps)
                except AssertionError as exc:
                    errs.append(f"#{idx} eps={eps}: invariant: {exc}")
    # lambda < UB on these, so the driver's certified stop can fire
    for name, G, kstar in gap_graphs():
        for eps in ("0.1", "0.5", "1"):
            got, T = solve_approx_tw(G, eps)
            bound = math.ceil((1 + Fraction(eps)) * kstar)
            if _reeval(G, T) != got:
                errs.append(f"{name} eps={eps}: tree re-evaluates off")
            if not kstar <= got <= bound:
                errs.append(f"{name} eps={eps}: {got} not in [{kstar}, {bound}]")
    _report(
        capsys, 3, errs,
        "approx <= ceil((1+eps)*stc) on 200 instances x eps in {0.1,0.5} "
        "and 3 graphs with lambda < UB x eps in {0.1,0.5,1}; "
        f"per-node rounding invariant on {invariant_runs} runs (n <= 8)",
    )


def test_criterion_4_gadget_equivalence(capsys):
    errs: list[str] = []
    rng = random.Random(104)
    shapes = [(1, 2), (2, 2), (3, 2), (1, 3)]
    for idx in range(50):
        host = random_connected_graph(rng, 4, rng.randint(3, 6))
        e = rng.choice(sorted(host.edges))
        w1, g = shapes[idx % len(shapes)]
        w2 = w1 + g - 1
        k = rng.randint(w2 + 1, 6)
        Gw = DoubleWeightedGraph(
            host,
            {f: w1 if f == e else 1 for f in host.edges},
            {f: w2 if f == e else 1 for f in host.edges},
        )
        H, _ = expand_double_weighted(Gw, k)
        before = stc_exact(Gw)[0] <= k
        after = stc_exact(H)[0] <= k
        if before != after:
            errs.append(f"#{idx}: weights ({w1},{w2}) k={k}: {before} vs {after}")
    _report(capsys, 4, errs, "50 weighted hosts: decision agrees across expansion")


def test_criterion_5_construction_arithmetic(capsys):
    errs: list[str] = []
    ubp = gen_ubp(3, [1] * 6)
    if ubp.k != 20:
        errs.append(f"ubp k={ubp.k}")
    r = ubp.annotations["r"]
    hubs = {ubp.weighted.wt1[edge_key(q, r)] for q in ubp.annotations["Q"]}
    if hubs != {12}:
        errs.append(f"ubp hub weights {hubs}")

    p3 = gen_3partition([4] * 9, 12)
    if (p3.provenance["M"], p3.k) != (96, 144):
        errs.append(f"3part M={p3.provenance['M']} k={p3.k}")

    b = gen_bsat(DEMO)
    G = b.graph
    degs = [G.degree(v) for v in range(G.n)]
    if b.k != 11:
        errs.append(f"bsat k={b.k}")
    if max(degs) != 8:
        errs.append(f"bsat max degree {max(degs)}")
    if any(G.degree(v) != 8 for v in b.annotations["y"]):
        errs.append("bsat deg(y) != 8")
    if any(G.degree(v) != 7 for v in b.annotations["x"] + b.annotations["xbar"]):
        errs.append("bsat deg(x) != 7")
    if any(G.degree(v) != 3 for v in b.annotations["clauses"]):
        errs.append("bsat deg(c) != 3")
    _report(capsys, 5, errs, "ubp k=20 hub 12; 3part M=96 k=144; bsat k=11 degrees 8/7/3")


def _swap(T: SpanningTree, drop, add) -> SpanningTree:
    edges = set(T.edges)
    edges.difference_update(edge_key(*e) for e in drop)
    edges.update(edge_key(*e) for e in add)
    return SpanningTree(T.host, frozenset(edges))


def test_criterion_6_witness_exactness(capsys):
    errs: list[str] = []

    ubp = gen_ubp(3, [1] * 6)
    T = witness_tree(ubp, [[0, 1], [2, 3], [4, 5]])
    rep = congestion_report(ubp.graph, T)
    r, Q, blocks = ubp.annotations["r"], ubp.annotations["Q"], ubp.annotations["blocks"]
    if rep.max_congestion != 20 or any(
        rep.per_edge[edge_key(q, r)] != 20 for q in Q
    ):
        errs.append("ubp hub edges not exactly k")
    u = blocks[0][0]
    if _reeval(ubp.graph, _swap(T, [(u, Q[0])], [(u, Q[1])])) <= 20:
        errs.append("ubp single-item move not > k")

    p3 = gen_3partition([4] * 9, 12)
    T = witness_tree(p3, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    rep = congestion_report(p3.graph, T)
    hub, Q, blocks = p3.annotations["C"][0], p3.annotations["Q"], p3.annotations["blocks"]
    if rep.max_congestion != 144 or any(
        rep.per_edge[edge_key(hub, q)] != 144 for q in Q
    ):
        errs.append("3part hub edges not exactly k")
    moved = blocks[0]
    P = _swap(T, [(u, Q[0]) for u in moved], [(u, Q[1]) for u in moved])
    if _reeval(p3.graph, P) <= 144:
        errs.append("3part single-item move not > k")

    b = gen_bsat(DEMO)
    alpha = [True, True, True]
    Tw = witness_tree_weighted(b, alpha)
    rep = congestion_report(b.weighted, Tw)
    ann = b.annotations
    for i in range(3):
        for e in (
            edge_key(ann["x"][i], ann["y"][i]),
            edge_key(ann["y"][i], ann["xbar"][i]),
        ):
            if rep.per_edge[e] != 11:
                errs.append(f"bsat y edge {e}: {rep.per_edge[e]}")
    for cv in ann["clauses"]:
        (attach,) = [e for e in Tw.edges if cv in e]
        if rep.per_edge[attach] != 11:
            errs.append(f"bsat clause edge {attach}: {rep.per_edge[attach]}")
    Te = witness_tree(b, alpha)
    if _reeval(b.graph, Te) != 11:
        errs.append("bsat expanded witness not exactly k")
    x1, xbar1, z1 = ann["x"][0], ann["xbar"][0], ann["z"][0]
    if _reeval(b.weighted, _swap(Tw, [(x1, z1)], [(xbar1, z1)])) <= 11:
        errs.append("bsat flip not > k (weighted)")
    if _reeval(b.graph, _swap(Te, [(x1, z1)], [(xbar1, z1)])) <= 11:
        errs.append("bsat flip not > k (expanded)")
    _report(capsys, 6, errs, "hub/y/clause edges exactly k; perturbations exceed k")


def test_criterion_7_reduction_soundness(capsys):
    errs: list[str] = []
    rng = random.Random(107)
    for idx in range(100):
        n = rng.randint(5, 12)
        fes = rng.choice([2, 3])
        G = random_connected_graph(rng, n, n - 1 + fes)
        core, trace = reduce_graph(G)
        if stc_exact(core)[0] != stc_exact(G)[0]:
            errs.append(f"#{idx}: stc changed across reduction")
        big = [v for v in range(core.n) if core.degree(v) >= 3]
        if not len(big) < 2 * fes:
            errs.append(f"#{idx}: |V>=3| = {len(big)} not < {2 * fes}")
        if not core.m < 9 * fes:
            errs.append(f"#{idx}: |E| = {core.m} not < {9 * fes}")
    _report(capsys, 7, errs, "100 instances (fes in {2,3}): stc preserved, kernel bounds hold")


def test_criterion_8_winwin(capsys):
    errs: list[str] = []
    K55 = complete_bipartite(5, 5)
    for w in range(1, 11):
        r = solve_cw_winwin(K55, 4, w)
        if r.decision != "no":
            errs.append(f"K55 w={w}: {r.decision}")
    checked = 0
    for idx, G in enumerate(suite_graphs()):
        kstar, _ = stc_exact(G)
        targets = [kstar] if kstar == 1 else [kstar, kstar - 1]
        for k in targets:
            r = solve_cw_winwin(G, k, G.n)
            want = "yes" if kstar <= k else "no"
            checked += 1
            if r.decision != want:
                errs.append(f"#{idx} k={k}: {r.decision} != {want}")
            elif want == "yes" and _reeval(G, r.tree) > k:
                errs.append(f"#{idx} k={k}: yes-tree exceeds k")
    _report(
        capsys, 8, errs,
        f"K55 'no' for w=1..10; {checked} decisions match dp on the suite (w=n)",
    )


def test_criterion_9_subdivision_invariance(capsys):
    errs: list[str] = []
    rng = random.Random(109)
    for idx in range(40):
        n = rng.randint(4, 8)
        G = random_connected_graph(rng, n, rng.randint(n - 1, min(12, n * (n - 1) // 2)))
        kstar = stc_exact(G)[0]
        u, v = rng.choice(sorted(G.edges))
        w = G.n
        H = Graph.from_edges(
            G.n + 1, sorted(G.edges - {edge_key(u, v)}) + [(u, w), (v, w)]
        )
        if stc_exact(H)[0] != kstar:
            errs.append(f"#{idx}: {kstar} -> {stc_exact(H)[0]}")
    _report(capsys, 9, errs, "40 random single-edge subdivisions leave stc unchanged")
