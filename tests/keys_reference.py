"""Frozen label-keyed contraction keys, MST and contraction (the reference).

This is ``draw_contraction_keys``, ``mst_of_keys`` and
``contract_to_size`` as ``repro.core`` ran them before a copy's keys
were kept as columns: every draw filled a ``(u, v) -> key`` dict for
both orientations and a ``(key, u, v)`` label list, the MST was a
Kruskal pass over that list, and the contraction ran its own Kruskal
pass, stopping once the target size was reached.  The code below is
kept verbatim -- function bodies and comments -- as the differential
reference for the columnar keys (``tests/test_keys_golden.py``).
Nothing in ``src/`` imports it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro.graph import Graph

EdgeId = tuple[Hashable, Hashable]
Vertex = Hashable


@dataclass(frozen=True)
class ContractionKeys:
    """Unique integer contraction keys for every edge of a graph.

    ``key[(u, v)]`` is defined for both orientations of each edge.
    ``max_key`` is the largest assigned key; ``key_space`` the paper's
    ``n^3`` bound.
    """

    key: dict[EdgeId, int]
    max_key: int
    key_space: int
    _ordered: list[tuple[int, Hashable, Hashable]] | None = field(
        default=None, repr=False, compare=False
    )

    def of(self, u: Hashable, v: Hashable) -> int:
        return self.key[(u, v)]

    def edges_by_key(self) -> list[tuple[int, Hashable, Hashable]]:
        """(key, u, v) triples, ascending, one per undirected edge.

        Cached after the first call (keys are immutable); callers must
        not mutate the returned list.
        """
        if self._ordered is None:
            seen = set()
            out = []
            for (u, v), k in self.key.items():
                if (v, u) in seen:
                    continue
                seen.add((u, v))
                out.append((k, u, v))
            out.sort()
            object.__setattr__(self, "_ordered", out)
        return self._ordered


def _spread_ranks(m: int, key_space: int) -> list[int]:
    """Rank ``1..m`` spread over ``[1, key_space]`` preserving order.

    With ``m <= n^2 < n^3`` the spreading keeps keys unique; on tiny
    key spaces where the stride collapses, fall back to the raw ranks.
    """
    stride = max(1, key_space // (m + 1))
    ranks = np.arange(1, m + 1, dtype=np.int64)
    kvals = np.minimum(np.int64(key_space), ranks * stride)
    if len(np.unique(kvals)) != m:
        kvals = ranks
    return kvals.tolist()


def draw_contraction_keys(graph: Graph, *, seed: int = 0) -> ContractionKeys:
    """Draw weight-biased unique keys for every edge of ``graph``."""
    rng = random.Random(seed)
    n = graph.num_vertices
    key_space = max(1, n**3)
    us, vs, ws = graph.edge_arrays()
    m = len(ws)
    # The uniform draws must come from the Python RNG one edge at a
    # time, in edge-storage order — the reproducibility contract ties
    # seeds to this exact stream.  Everything downstream (clocks,
    # ordering, rank spreading) is vectorized over the columns.
    unif = np.fromiter((rng.random() for _ in range(m)), np.float64, count=m)
    # Exp(1)/w: smaller for heavier edges => contracted earlier.  The
    # per-element math.log keeps clock values bit-identical to the
    # scalar implementation (SIMD log kernels may round differently).
    clocks = np.fromiter(
        (-math.log(c) for c in np.maximum(unif, 1e-300).tolist()),
        np.float64,
        count=m,
    )
    clocks /= ws
    key: dict[EdgeId, int] = {}
    ordered: list[tuple[int, Hashable, Hashable]] = []
    if m:
        order = np.argsort(clocks, kind="stable")
        kvals = _spread_ranks(m, key_space)
        V = graph.vertices()
        for k, iu, iv in zip(kvals, us[order].tolist(), vs[order].tolist()):
            u, v = V[iu], V[iv]
            key[(u, v)] = k
            key[(v, u)] = k
            ordered.append((k, u, v))
    max_key = ordered[-1][0] if ordered else 0
    return ContractionKeys(
        key=key, max_key=max_key, key_space=key_space, _ordered=ordered
    )


def draw_uniform_keys(graph: Graph, *, seed: int = 0) -> ContractionKeys:
    """Weight-*oblivious* keys: a uniform random edge permutation."""
    rng = random.Random(seed)
    n = graph.num_vertices
    key_space = max(1, n**3)
    edges = [(u, v) for u, v, _ in graph.edges()]
    rng.shuffle(edges)
    m = len(edges)
    key: dict[EdgeId, int] = {}
    ordered: list[tuple[int, Hashable, Hashable]] = []
    if m:
        for k, (u, v) in zip(_spread_ranks(m, key_space), edges):
            key[(u, v)] = k
            key[(v, u)] = k
            ordered.append((k, u, v))
    max_key = ordered[-1][0] if ordered else 0
    return ContractionKeys(
        key=key, max_key=max_key, key_space=key_space, _ordered=ordered
    )


class _IndexDSU:
    """Union–find over dense vertex indices (flat-array storage)."""

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
    """Contract cheapest-key MST edges until ``target_vertices`` remain."""
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
