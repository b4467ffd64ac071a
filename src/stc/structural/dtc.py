"""Distance-to-clique solver.

With modulator S (|S| = q) and clique C (|C| = N), small instances defer to
the kernel pipeline (`solve_fes`).  Large ones are covered by a structure
theorem: some optimal tree consists of a center r, all but at most q clique
vertices as leaves of r, and an arbitrary arrangement of the remaining <= 2q
vertices.
Twin clique vertices (same neighborhood in S) are interchangeable, so the
search runs over twin-class representatives.  For each center r and choice
Q of arranged clique vertices, the best arrangement of S + Q under r is the
vertex-subset step of stc.bounds on the list [r, *others], with every other
vertex a leaf of r; that module's docstring says why the step's cuts are
the arrangement edges' congestions.  The driver over k of stc.dp searches
it from the largest leaf degree up to below the best tree so far, and
re-measures each tree it accepts.
"""
from __future__ import annotations

from ..bounds import _subset_step
from ..dp import _first_k
from ..errors import GraphError
from ..graph import Graph, SpanningTree, require_connected, twin_classes
from .fes import solve_fes
from .vi import _bounded_counts, checked_modulator


def _check_modulator(G: Graph, S: frozenset[int]) -> list[int]:
    """The clique G - S, sorted; GraphError when it is not one."""
    C = [v for v in range(G.n) if v not in S]
    for i, u in enumerate(C):
        for v in C[i + 1:]:
            if not G.has_edge(u, v):
                raise GraphError(f"G - S is not a clique: {u} and {v} not adjacent")
    return C


def small_case_threshold(q: int) -> int:
    return 2 * q**3 + 4 * q


def solve_dtc(G: Graph, S) -> tuple[int, SpanningTree]:
    """Exact stc given a clique modulator S."""
    require_connected(G)
    S = checked_modulator(G, S)
    C = _check_modulator(G, S)
    q, N = len(S), len(C)
    if N <= small_case_threshold(q):
        return solve_fes(G)

    classes = twin_classes(G, S)  # classes of C by neighborhood in S
    reps = [cls[0] for cls in classes]
    class_keys = [frozenset(G.neighbors(cls[0]) & S) for cls in classes]

    best: tuple[int, SpanningTree] | None = None
    for r in reps + sorted(S):
        # Q is a multiset over twin classes; actual members are the smallest
        # ids of each class distinct from r
        per_class_cap = [
            min(q, len(cls) - (1 if r in cls else 0)) for cls in classes
        ]
        for counts in _bounded_counts(per_class_cap, q):
            Q: set[int] = set()
            for cls, cnt in zip(classes, counts):
                Q.update([v for v in cls if v != r][:cnt])
            leaf_worst = 0
            ok = True
            for idx, cls in enumerate(classes):
                used = counts[idx] + (1 if r in cls else 0)
                if len(cls) > used:
                    # leftover class members hang off r directly
                    if r in S and r not in class_keys[idx]:
                        ok = False
                        break
                    leaf_worst = max(leaf_worst, G.degree(cls[0]))
            if not ok:
                continue
            # the best arrangement of the rest under r that beats best
            others = sorted((S | Q) - {r})
            stop = G.m + 1 if best is None else best[0]
            found = _first_k(G, *_subset_step(G, [r, *others], leaf_worst, stop))
            if found is not None:
                got, T, k = found
                assert got == k, f"the subset step's {k} disagrees with the report's {got}"
                best = (got, T)
    assert best is not None, "no valid arrangement found"
    return best
