"""Tests for the benchmark's own helpers: checker, generators, percentiles."""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import instances  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402

GRID3 = sorted(
    [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
    + [(r * 3 + c, r * 3 + c + 3) for r in range(2) for c in range(3)]
)


def test_grid3_comb_tree_has_congestion_3():
    spine = [(3, 4), (4, 5)]
    teeth = [(c, c + 3) for c in range(3)] + [(c + 3, c + 6) for c in range(3)]
    tree = spine + teeth
    assert checker.tree_problem(9, GRID3, tree) is None
    assert checker.tree_congestion(9, GRID3, tree) == 3


def test_k4_star_has_congestion_3():
    k4 = instances.complete(4)
    star = [(0, 1), (0, 2), (0, 3)]
    assert checker.tree_problem(4, k4, star) is None
    assert checker.tree_congestion(4, k4, star) == 3


def test_non_spanning_edge_sets_are_rejected():
    k4 = instances.complete(4)
    assert "2 edges" in checker.tree_problem(4, k4, [(0, 1), (1, 2)])
    assert "cycle" in checker.tree_problem(4, k4, [(0, 1), (1, 2), (0, 2)])
    comb_part = [(3, 4), (4, 5), (0, 3), (1, 4), (2, 5), (3, 6), (4, 7)]
    assert "not in the graph" in checker.tree_problem(9, GRID3, comb_part + [(0, 8)])


def test_brute_force_matches_the_oracle_on_suite_graphs():
    from stc import Graph, stc_exact

    for n, edges in instances.suite(12):
        assert checker.brute_force_stc(n, edges) == stc_exact(Graph.from_edges(n, edges))[0]
    assert checker.brute_force_stc(9, GRID3) == 3


def test_universal_vertex_rule_on_small_graphs():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(4, 8)
        edges = set(instances.random_connected(rng, n - 1, rng.randint(n - 2, 2 * n)))
        edges = sorted(edges | {(v, n - 1) for v in range(n - 1)})
        want = max(sum(1 for e in edges if u in e) for u in range(n - 1))
        assert checker.brute_force_stc(n, edges) == want


def test_sparse_construction_keeps_the_core_stc():
    from stc import Graph, stc_exact

    rng = random.Random(3)
    cores = [(4, instances.complete(4)), (9, GRID3), instances.suite()[2]]
    for core_n, core_edges in cores:
        for target in (2 * core_n + 2 * len(core_edges), 2 * core_n + 2 * len(core_edges) + 5):
            inst = instances.sparse_large(rng, "t", core_n, core_edges, target)
            assert inst.n == target
            assert instances.fes(inst.n, inst.edges) == instances.fes(core_n, core_edges)
            got = stc_exact(Graph.from_edges(inst.n, inst.edges))[0]
            assert got == checker.brute_force_stc(core_n, core_edges)


def test_percentile_rule():
    xs = list(range(1, 11))
    assert run.percentile(xs, 50) == 5.5
    assert abs(run.percentile(xs, 90) - 9.1) < 1e-9
    assert run.percentile(xs, 0) == 1 and run.percentile(xs, 100) == 10
    assert run.percentile([7.0], 90) == 7.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(probes.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(instances.WORKLOADS)
