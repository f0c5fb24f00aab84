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
* :func:`prefix_roots` — the union–find roots after a prefix of the
  MST's unions, for a batch of copies at once: the blocks of line 6
  and ``bag(v, t)`` (Definition 6), Algorithm 3's witness;
  :func:`bag_at` is its one-bag wrapper.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from typing import Hashable, NamedTuple, Sequence

import numpy as np

from ..graph import Graph
from ..graph.graph import quotient_columns
from .keys import ContractionKeys
from .ldr import _jump

Vertex = Hashable


def mst_of_keys(
    graph: Graph, keys: ContractionKeys
) -> list[tuple[int, Vertex, Vertex]]:
    """The MST of ``graph`` under ``keys`` (drawn on it), as
    ``(key, u, v)`` ascending."""
    V = keys.vertices
    mst = keys.mst
    return [(k, V[a], V[b]) for k, a, b in zip(mst.key, mst.u, mst.v)]


class Contracted(NamedTuple):
    """One copy after :func:`contract_to_size`: its quotient, each
    input vertex index's quotient vertex index, and each quotient
    vertex's representative as an input vertex index."""

    graph: Graph
    block: np.ndarray
    rep: np.ndarray


def contract_to_size(graph, keys=None, target_vertices=None):
    """Contract cheapest-key MST edges until ``target_vertices`` remain.

    Returns the quotient graph (parallel edges merged by weight sum,
    self-loops dropped) and the representative->members blocks mapping
    for lifting cuts back.  Contracts nothing if the graph is already
    at or below the target.

    ``graph`` may instead be a sequence of ``(graph, keys, target)``
    copies, contracted together; each comes back as a
    :class:`Contracted`, whose index arrays stand for the blocks.  A
    one-graph call is a batch of one.

    The blocks are Kruskal's union–find sets after the MST's first
    ``n - target_vertices`` unions — the edges skipped as cycles never
    change a root — named by their roots (:func:`prefix_roots`); one
    vectorized quotient over every copy's edge columns, vertex ids
    offset per copy, materialises the contracted graphs exactly as
    :meth:`Graph.quotient` would one by one.  So the contraction is a
    prefix of the MST:

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
    if isinstance(graph, Graph):
        (quotient, block, _), = contract_to_size([(graph, keys, target_vertices)])
        reps = quotient.vertices()
        blocks: dict[Vertex, list[Vertex]] = {v: [] for v in reps}
        for v, q in zip(graph.vertices(), block.tolist()):
            blocks[reps[q]].append(v)
        return quotient, blocks
    if not graph:
        return []
    if any(target < 1 for _, _, target in graph):
        raise ValueError("target_vertices must be >= 1")
    sizes = np.array([g.num_vertices for g, _, _ in graph], dtype=np.int64)
    base = np.cumsum(sizes) - sizes
    root = prefix_roots(
        [keys for _, keys, _ in graph],
        [min(g.num_vertices - target, len(keys.mst.key)) for g, keys, target in graph],
    )
    # Blocks in order of their first member, as Graph.quotient numbers
    # them; a copy's blocks follow the blocks of the copies before it.
    roots, first, inverse = np.unique(root, return_index=True, return_inverse=True)
    by_first = np.argsort(first, kind="stable")
    label = np.empty(roots.size, dtype=np.int64)
    label[by_first] = np.arange(roots.size)
    label = label[inverse]
    rep = roots[by_first]

    columns = [g._columns() for g, _, _ in graph]
    shift = np.repeat(base, [ws.size for _, _, ws in columns])
    qus, qvs, qws = quotient_columns(
        label, rep.size,
        np.concatenate([us for us, _, _ in columns]) + shift,
        np.concatenate([vs for _, vs, _ in columns]) + shift,
        np.concatenate([ws for _, _, ws in columns]),
    )
    # Each copy's ids lie below the next copy's, so searchsorted finds
    # where each copy starts in these copy-ordered arrays.
    q_base = np.append(np.searchsorted(rep, base), rep.size).tolist()
    e_base = np.append(np.searchsorted(qus, q_base[:-1]), qus.size).tolist()
    out = []
    for c, (g, _, _) in enumerate(graph):
        lo, q0, q1 = int(base[c]), q_base[c], q_base[c + 1]
        e = slice(e_base[c], e_base[c + 1])
        V, rep_c = g.vertices(), rep[q0:q1] - lo
        quotient = Graph._from_columns(
            [V[r] for r in rep_c.tolist()], qus[e] - q0, qvs[e] - q0, qws[e]
        )
        out.append(Contracted(quotient, label[lo:lo + g.num_vertices] - q0, rep_c))
    return out


def prefix_roots(keys: Sequence[ContractionKeys], prefix: Sequence[int]) -> np.ndarray:
    """Each vertex's union–find root after its keys' first ``prefix``
    MST unions, for every copy at once: copy ``c``'s vertex indices,
    and its roots, are offset by the vertex counts of the copies
    before it.

    Each union hangs the root it absorbed under the surviving root,
    and an absorbed root never leads again, so the prefix's unions
    form a forest whose roots pointer jumping finds."""
    sizes = [len(k.vertices) for k in keys]
    base = np.cumsum(sizes) - sizes
    pointer = np.arange(sum(sizes), dtype=np.int64)
    absorbed = [np.asarray(k.mst.absorbed[:p], dtype=np.int64) + b
                for k, p, b in zip(keys, prefix, base.tolist())]
    survivor = [np.asarray(k.mst.root[:p], dtype=np.int64) + b
                for k, p, b in zip(keys, prefix, base.tolist())]
    pointer[np.concatenate(absorbed)] = np.concatenate(survivor)
    return _jump(pointer)


def bag_at(
    graph: Graph, keys: ContractionKeys, v: Vertex, t: int
) -> frozenset:
    """``bag(v, t)``: vertices reachable from ``v`` by MST edges of key <= t.

    Definition 6 says *tree* edges; reachability over all edges of key
    <= t gives the same set (non-tree edges with small keys connect
    vertices already joined by smaller tree keys — the Kruskal cycle
    property), which tests assert.
    """
    root = prefix_roots([keys], [bisect_right(keys.mst.key, t)])
    return frozenset(compress(keys.vertices, (root == root[graph.index_of(v)]).tolist()))


def bag_boundary_weight(graph: Graph, bag: frozenset) -> float:
    """``Delta bag``: total weight of edges leaving the bag."""
    return graph.cut_weight(bag) if 0 < len(bag) < graph.num_vertices else 0.0
