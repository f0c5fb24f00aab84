"""Frozen `/gomoryhu` reply builder (the reference).

This is ``repro.service.ops._gomoryhu`` as it was before the reply was
derived from the oracle's tree edges by ``repro.flow.cut_tree_tables``:
an n×n ``matrix`` filled from a ``{u: {v: value}}`` dict, the canonical
``tree`` picked by Kruskal over all n²/2 pairs sorted in ``(-w, i, j)``
order, and ``bottleneck`` filled by one tree walk per source vertex.
The dict came from ``GomoryHuTree.all_pairs_min_cuts`` as it was then,
one rooted walk per vertex; it is kept here as
:func:`reference_all_pairs`.  The code below is kept verbatim --
function bodies and comments -- as the differential reference for the
new builder (``tests/test_gomoryhu_reply.py``) and as the "old" side of
``benchmarks/bench_gomoryhu_reply.py``.  Nothing in ``src/`` imports
this module.

:func:`reference_reply` takes the values instead of fetching them from
the service, so a test can feed it any exact tree: a fresh, masked,
repaired or cold per-component one.
"""

from __future__ import annotations

from typing import Hashable

from repro.flow import DinicSolver, GomoryHuTree, gomory_hu_tree
from repro.graph import Graph, IndexDSU
from repro.service.ops import vertex_list

Vertex = Hashable


def reference_all_pairs(tree: GomoryHuTree) -> dict:
    """Every pairwise min-cut value in one pass: ``{u: {v: value}}``.

    One rooted DFS per vertex carries the running path minimum, so
    the full ``n(n-1)/2`` matrix costs ``O(n^2)`` tree-edge visits.
    """
    adjacency: dict[Vertex, list[tuple[Vertex, float]]] = {}
    for e in tree.edges:
        adjacency.setdefault(e.child, []).append((e.parent, e.weight))
        adjacency.setdefault(e.parent, []).append((e.child, e.weight))
    out: dict[Vertex, dict[Vertex, float]] = {
        v: {} for v in adjacency
    }
    for s in adjacency:
        stack = [(s, float("inf"))]
        seen = {s}
        while stack:
            v, limit = stack.pop()
            for nbr, w in adjacency[v]:
                if nbr in seen:
                    continue
                seen.add(nbr)
                value = min(limit, w)
                out[s][nbr] = value
                stack.append((nbr, value))
    return out


def reference_values(graph: Graph, tree: GomoryHuTree | None = None) -> dict:
    """The values the old builder read: ``tree``'s walk on a connected
    graph (a cold build when ``tree`` is None), else the merged walks
    of cold per-component trees."""
    components = graph.components()
    if len(components) == 1:
        return reference_all_pairs(tree or gomory_hu_tree(graph))
    values = {}
    for comp in components:
        if len(comp) < 2:
            continue
        sub = gomory_hu_tree(graph.induced_subgraph(comp))
        for u, row in reference_all_pairs(sub).items():
            values.setdefault(u, {}).update(row)
    return values


def reference_reply(graph: Graph, values: dict, sides: bool) -> dict:
    """The old `/gomoryhu` payload of ``graph`` from its pair values."""
    vertices = vertex_list(graph.vertices())
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    components = graph.components()
    connected = len(components) == 1
    matrix: list[list] = [[None] * n for _ in range(n)]
    for u, row in values.items():
        for v, w in row.items():
            matrix[index[u]][index[v]] = float(w)

    # Canonical cut tree: the maximum spanning forest of the value
    # matrix under a fixed tie-break.  Adjacent matrix pairs are
    # joined by a single tree edge, so each edge's weight is
    # exactly that pair's min-cut value.
    pairs = [
        (i, j, matrix[i][j])
        for i in range(n)
        for j in range(i + 1, n)
        if matrix[i][j] is not None
    ]
    pairs.sort(key=lambda e: (-e[2], e[0], e[1]))
    forest = IndexDSU(n)
    tree: list[dict] = []
    adjacency: list[list] = [[] for _ in range(n)]
    for i, j, w in pairs:
        if forest.union(i, j) < 0:
            continue
        eidx = len(tree)
        tree.append({"u": vertices[i], "v": vertices[j], "weight": w})
        adjacency[i].append((j, eidx, w))
        adjacency[j].append((i, eidx, w))

    # Bottleneck edge per pair: the argmin-weight edge on the tree
    # path (lowest edge index on ties) — symmetric because both
    # directions argmin over the same path.
    bottleneck: list[list] = [[None] * n for _ in range(n)]
    for s in range(n):
        stack: list[tuple] = [(s, None)]
        seen = {s}
        while stack:
            v, best = stack.pop()
            for nbr, eidx, w in adjacency[v]:
                if nbr in seen:
                    continue
                seen.add(nbr)
                cand = best
                if (cand is None or w < cand[0]
                        or (w == cand[0] and eidx < cand[1])):
                    cand = (w, eidx)
                bottleneck[s][nbr] = cand[1]
                stack.append((nbr, cand))

    if sides:
        for eidx, rec in enumerate(tree):
            iu = index[rec["u"]]
            reach = {iu}
            stack = [iu]
            while stack:
                v = stack.pop()
                for nbr, other, _ in adjacency[v]:
                    if other != eidx and nbr not in reach:
                        reach.add(nbr)
                        stack.append(nbr)
            side = frozenset(vertices[i] for i in reach)
            if graph.cut_weight(side) != rec["weight"]:
                # The canonical tree is flow-equivalent, not
                # cut-equivalent: when the fundamental side misses,
                # one deterministic max-flow recovers a real cut of
                # exactly this value.
                side = DinicSolver(graph).max_flow(
                    rec["u"], rec["v"]
                ).source_side
            rec["side"] = vertex_list(side)

    return {
        "num_vertices": n, "connected": connected,
        "components": len(components), "vertices": vertices,
        "matrix": matrix, "tree": tree, "bottleneck": bottleneck,
        "sides": sides,
    }
