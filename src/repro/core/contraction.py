"""The contraction process (Section 4.1) and quotient extraction.

Contracting edges in increasing key order is equivalent (for topology)
to contracting only the MST edges of the keyed graph — the comparison
to Kruskal the paper makes.  The keys run Kruskal once
(:attr:`~repro.core.keys.ContractionKeys.mst`), and this module reads
that MST:

* :func:`mst_of_keys` — the unique MST under unique keys, in labels;
* :func:`contract_to_size` — the graph "after the first ``k``
  contractions" (Algorithm 1, line 6): the MST's cheapest edges
  contracted until the target vertex count remains, parallel edges
  merged by weight;
* :func:`mst_bag` — ``bag(v, t)`` (Definition 6): the union–find
  sets after the MST's edges of key <= t, over vertex indices
  (Algorithm 3's witness); :func:`bag_at` is its label wrapper.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Hashable

from ..graph import Graph
from .keys import ContractionKeys

Vertex = Hashable


def mst_of_keys(
    graph: Graph, keys: ContractionKeys
) -> list[tuple[int, Vertex, Vertex]]:
    """The MST of ``graph`` under ``keys`` (drawn on it), as
    ``(key, u, v)`` ascending."""
    V = keys.vertices
    mst = keys.mst
    return [(k, V[a], V[b]) for k, a, b in zip(mst.key, mst.u, mst.v)]


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

    The blocks are Kruskal's union–find sets after the MST's first
    ``n - target_vertices`` unions — the edges skipped as cycles never
    change a root — named by their roots; a single vectorized
    :meth:`Graph.quotient` materialises the contracted graph.  So the
    contraction is a prefix of the MST:

    >>> from repro.core.keys import draw_contraction_keys
    >>> from repro.graph import DSU
    >>> from repro.workloads import grid
    >>> g = grid(3, 3)
    >>> keys = draw_contraction_keys(g, seed=1)
    >>> quotient, blocks = contract_to_size(g, keys, 4)
    >>> quotient.num_vertices
    4
    >>> prefix = DSU(g.vertices())
    >>> for _, u, v in mst_of_keys(g, keys)[: 9 - 4]:
    ...     _ = prefix.union(u, v)
    >>> prefix.groups() == blocks
    True
    """
    if target_vertices < 1:
        raise ValueError("target_vertices must be >= 1")
    vertices = graph.vertices()
    n = len(vertices)
    root = _prefix_roots(keys, min(n - target_vertices, len(keys.mst.key)))
    return graph.quotient({v: vertices[r] for v, r in zip(vertices, root)})


def _prefix_roots(keys: ContractionKeys, prefix: int) -> list[int]:
    """Each vertex index's union–find root after the MST's first
    ``prefix`` unions."""
    mst = keys.mst
    root = list(range(len(keys.vertices)))
    # Backwards over the prefix, each absorbed root takes the final
    # root of the root it joined (which a later union may absorb).
    for s in reversed(range(prefix)):
        root[mst.absorbed[s]] = root[mst.root[s]]
    return root


def bag_at(
    graph: Graph, keys: ContractionKeys, v: Vertex, t: int
) -> frozenset:
    """``bag(v, t)``: vertices reachable from ``v`` by MST edges of key <= t.

    Definition 6 says *tree* edges; reachability over all edges of key
    <= t gives the same set (non-tree edges with small keys connect
    vertices already joined by smaller tree keys — the Kruskal cycle
    property), which tests assert.
    """
    return mst_bag(keys, graph.index_of(v), t)


def mst_bag(keys: ContractionKeys, v: int, t: int) -> frozenset:
    """``bag(V[v], t)`` for the vertex of index ``v``: the vertices
    joined to it by the keyed MST's edges of key <= t, as labels.

    Algorithm 3's witness, on the MST its step 1 read."""
    root = _prefix_roots(keys, bisect_right(keys.mst.key, t))
    r = root[v]
    return frozenset(x for x, rx in zip(keys.vertices, root) if rx == r)


def bag_boundary_weight(graph: Graph, bag: frozenset) -> float:
    """``Delta bag``: total weight of edges leaving the bag."""
    return graph.cut_weight(bag) if 0 < len(bag) < graph.num_vertices else 0.0
