"""The contraction process (Section 4.1) and quotient extraction.

Contracting edges in increasing key order is equivalent (for topology)
to contracting only the MST edges of the keyed graph — the comparison
to Kruskal the paper makes.  This module provides:

* :func:`mst_of_keys` — the unique MST under unique keys;
* :func:`contract_to_size` — the graph "after the first ``k``
  contractions" (Algorithm 1, line 6): contract cheapest MST edges
  until the target vertex count remains, merging parallel edges by
  weight;
* :func:`bag_at` — ``bag(v, t)`` by definition (Definition 6), the
  reference semantics used in property tests, and :func:`mst_bag`,
  the same walk over an MST already built (Algorithm 3's witness).
"""

from __future__ import annotations

from typing import Hashable

from ..graph import Graph
from .keys import ContractionKeys

Vertex = Hashable


class _IndexDSU:
    """Union–find over dense vertex indices (flat-array storage).

    Mirrors :class:`repro.graph.DSU` decision-for-decision — union by
    size with the first argument's root surviving ties, path halving —
    so the elected representatives (which become quotient vertex
    labels downstream) are identical to the hashable implementation's,
    just without per-operation dict hashing.
    """

    __slots__ = ("parent", "size", "count")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        size = self.size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        size[ra] += size[rb]
        self.count -= 1
        return True


def mst_of_keys(
    graph: Graph, keys: ContractionKeys
) -> list[tuple[int, Vertex, Vertex]]:
    """Kruskal on contraction keys: the unique MST, as (key, u, v) ascending."""
    index = graph._index
    dsu = _IndexDSU(graph.num_vertices)
    mst: list[tuple[int, Vertex, Vertex]] = []
    for k, u, v in keys.edges_by_key():
        if dsu.union(index[u], index[v]):
            mst.append((k, u, v))
    return mst


def contract_to_size(
    graph: Graph,
    keys: ContractionKeys,
    target_vertices: int,
) -> tuple[Graph, dict[Vertex, list[Vertex]]]:
    """Contract cheapest-key MST edges until ``target_vertices`` remain.

    Returns the quotient graph (parallel edges merged by weight sum,
    self-loops dropped) and the representative->members blocks mapping
    for lifting cuts back.  Contracts nothing if the graph is already
    at or below the target.

    One pass: a flat-array DSU labels every vertex with its block's
    representative, then a single vectorized :meth:`Graph.quotient`
    materialises the contracted graph — no incremental edge merging.
    """
    if target_vertices < 1:
        raise ValueError("target_vertices must be >= 1")
    n = graph.num_vertices
    vertices = graph.vertices()
    index = graph._index
    dsu = _IndexDSU(n)
    if n > target_vertices:
        for _, u, v in keys.edges_by_key():
            if dsu.union(index[u], index[v]) and dsu.count <= target_vertices:
                break
    representative = {v: vertices[dsu.find(i)] for i, v in enumerate(vertices)}
    return graph.quotient(representative)


def bag_at(
    graph: Graph, keys: ContractionKeys, v: Vertex, t: int
) -> frozenset:
    """``bag(v, t)``: vertices reachable from ``v`` by MST edges of key <= t.

    Definition 6 says *tree* edges; reachability over all edges of key
    <= t gives the same set (non-tree edges with small keys connect
    vertices already joined by smaller tree keys — the Kruskal cycle
    property), which tests assert.  This walks the MST.
    """
    adj: dict[Vertex, list[Vertex]] = {u: [] for u in graph.vertices()}
    for k, a, b in mst_of_keys(graph, keys):
        if k <= t:
            adj[a].append(b)
            adj[b].append(a)
    out = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in out:
                out.add(y)
                stack.append(y)
    return frozenset(out)


def mst_bag(
    mst: list[tuple[int, Vertex, Vertex]], v: Vertex, t: int
) -> frozenset:
    """``bag(v, t)`` from the keyed MST as ``(key, u, v)`` ascending:
    the vertices reachable from ``v`` over its edges of key <= t.

    Algorithm 3's witness, on the MST its step 1 built; :func:`bag_at`
    stays the independent reference."""
    adj: dict[Vertex, list[Vertex]] = {}
    for k, a, b in mst:
        if k > t:
            break
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    out = {v}
    stack = [v]
    while stack:
        for y in adj.get(stack.pop(), ()):
            if y not in out:
                out.add(y)
                stack.append(y)
    return frozenset(out)


def bag_boundary_weight(graph: Graph, bag: frozenset) -> float:
    """``Delta bag``: total weight of edges leaving the bag."""
    return graph.cut_weight(bag) if 0 < len(bag) < graph.num_vertices else 0.0
