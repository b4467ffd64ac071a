"""Witness spanning trees of the generated hardness instances.

The reference the reduction tests measure: a certificate (a packing, a
3-partition or a satisfying assignment) gives a tree of congestion exactly
the bundle's k, first on the pre-expansion graph and then lifted through
the recorded middle vertices and grid gadgets onto bundle.graph.
"""
from __future__ import annotations

from stc.errors import GraphError
from stc.graph import Edge, SpanningTree, edge_key
from stc.reductions import InstanceBundle


class InvalidCertificateError(ValueError):
    """Witness certificate does not satisfy its instance."""


def comb_edges(g: int, base: int) -> list[Edge]:
    """Comb spanning tree of the g x g grid: middle-row spine, column teeth."""
    mid = (g - 1) // 2
    out = []
    for c in range(g - 1):
        v = base + mid * g + c
        out.append(edge_key(v, v + 1))
    for r in range(g - 1):
        for c in range(g):
            v = base + r * g + c
            out.append(edge_key(v, v + g))
    return out


def _check_partition(parts, a, groups: int, B: int) -> list[list[int]]:
    parts = [list(p) for p in parts]
    if len(parts) != groups:
        raise InvalidCertificateError(f"expected {groups} groups, got {len(parts)}")
    seen: list[int] = []
    for p in parts:
        seen.extend(p)
    if sorted(seen) != list(range(len(a))):
        raise InvalidCertificateError("groups do not partition the item indices")
    for idx, p in enumerate(parts):
        s = sum(a[i] for i in p)
        if s != B:
            raise InvalidCertificateError(f"group {idx} sums to {s}, needs {B}")
    return parts


def witness_tree_weighted(bundle: InstanceBundle, certificate) -> SpanningTree:
    """Witness spanning tree on the pre-expansion graph of a generated bundle.

    Certificates: a list of t (resp. n) lists of item indices for the bin
    packing and 3-partition bundles, or a list of n booleans for the SAT
    bundle.  Raises InvalidCertificateError unless the certificate is a
    valid packing / satisfying assignment.
    """
    kind = bundle.provenance.get("construction")
    ann = bundle.annotations
    if kind == "ubp":
        prov = bundle.provenance
        parts = _check_partition(certificate, prov["a"], prov["t"], prov["B"])
        r, Q, blocks = ann["r"], ann["Q"], ann["blocks"]
        edges = [edge_key(q, r) for q in Q]
        for j, p in enumerate(parts):
            edges.extend(edge_key(u, Q[j]) for i in p for u in blocks[i])
        return SpanningTree(bundle.weighted.base, frozenset(edges))
    if kind == "3part":
        prov = bundle.provenance
        parts = _check_partition(certificate, prov["a"], prov["n"], prov["B"])
        Q, C, w, blocks = ann["Q"], ann["C"], ann["w"], ann["blocks"]
        hub = C[0]
        edges = [edge_key(hub, v) for v in Q + C[1:] + [w]]
        for j, p in enumerate(parts):
            edges.extend(edge_key(u, Q[j]) for i in p for u in blocks[i])
        return SpanningTree(bundle.graph, frozenset(edges))
    if kind == "bsat":
        clauses = bundle.provenance["clauses"]
        n = bundle.provenance["n"]
        alpha = list(certificate)
        if len(alpha) != n:
            raise InvalidCertificateError(f"assignment needs {n} values")
        xs, ys, xbars, zs, cs = ann["x"], ann["y"], ann["xbar"], ann["z"], ann["clauses"]
        edges = [edge_key(zs[i], zs[i + 1]) for i in range(n - 1)]
        for i in range(n):
            edges.append(edge_key(xs[i], ys[i]))
            edges.append(edge_key(ys[i], xbars[i]))
            edges.append(edge_key(xs[i] if alpha[i] else xbars[i], zs[i]))
        for j, clause in enumerate(clauses):
            sat = [l for l in clause if bool(alpha[abs(l) - 1]) == (l > 0)]
            if not sat:
                raise InvalidCertificateError(f"assignment falsifies clause {j}")
            l = sat[0]
            edges.append(edge_key(cs[j], xs[abs(l) - 1] if l > 0 else xbars[abs(l) - 1]))
        return SpanningTree(bundle.weighted.base, frozenset(edges))
    raise GraphError(f"bundle has no witness construction for {kind!r}")


def witness_tree(bundle: InstanceBundle, certificate) -> SpanningTree:
    """Witness spanning tree of bundle.graph, lifted through the expansion.

    Builds the pre-expansion witness and then routes it through the recorded
    middle vertices and grid gadgets: kept tree edges stay, each middle hangs
    off the smaller endpoint, every grid copy contributes a comb tree hung
    off u, and the first copy of a tree edge's gadget also reconnects v.
    """
    wtree = witness_tree_weighted(bundle, certificate)
    if bundle.weighted is None:
        return wtree
    ann = bundle.annotations
    gadgets = ann.get("gadgets", {})
    middles = ann.get("middles", {})
    out: set[Edge] = set()
    for e in sorted(bundle.weighted.base.edges):
        in_tree = e in wtree.edges
        gad = gadgets.get(e)
        if gad is not None:
            u, v = e
            g = gad["g"]
            for base_id in gad["copies"]:
                out.update(comb_edges(g, base_id))
                out.add(edge_key(u, base_id))
            if in_tree:
                out.add(edge_key(v, gad["copies"][0] + g * g - 1))
            continue
        if in_tree:
            out.add(e)
        for mid in middles.get(e, []):
            out.add(edge_key(min(e), mid))
    return SpanningTree(bundle.graph, frozenset(out))
