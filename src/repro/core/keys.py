"""Contraction keys ``w : E -> [n^3]`` (Section 4.1).

The paper's contraction process iterates timesteps ``0 .. n^3`` and at
time ``t`` contracts the edge whose key equals ``t``; keys are "random
and unique".  Two regimes:

* **unweighted graphs** — a uniformly random permutation of the edges
  reproduces Karger's uniform random contraction;
* **weighted graphs** — Karger's process must pick each edge with
  probability proportional to its weight.  Drawing an exponential
  clock ``Exp(1) / w(e)`` per edge and contracting in increasing clock
  order is exactly weight-proportional sampling without replacement
  (the memoryless property makes every conditional pick proportional
  to weight).  We draw clocks, then *rank* them into unique integers,
  which keeps the paper's integer-timestep semantics intact.

Ranks are spread over ``[1, n^3]`` (the paper's key space) rather than
``[1, m]``; only the order matters to every consumer, but tests assert
the codomain contract too.

Keys are columns: the edge rows in key order, as endpoint indices into
the graph's vertex order, and their key values.  Contracting edges in
increasing key order merges exactly what Kruskal's algorithm merges,
so the keyed MST (:attr:`ContractionKeys.mst`, one Kruskal pass per
draw) serves both Algorithm 1's contraction to size and Algorithm 3's
step 1.  The ``(u, v) -> key`` dict and the ``(key, u, v)`` label list
are views built on first use.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, NamedTuple, Sequence

import numpy as np

from ..graph import Graph, IndexDSU

Vertex = Hashable
EdgeId = tuple[Vertex, Vertex]


class KeyedMST(NamedTuple):
    """The keyed MST (a forest on a disconnected graph) in Kruskal
    order: row ``i`` is the ``i``-th contraction that merges two bags,
    with its key, its endpoints' vertex indices, and the union–find
    roots it joined (``absorbed`` hangs under ``root``)."""

    key: list[int]
    u: list[int]
    v: list[int]
    root: list[int]
    absorbed: list[int]


@dataclass(frozen=True)
class ContractionKeys:
    """Unique integer contraction keys for every edge of a graph.

    Row ``i`` is the edge with the ``i``-th smallest key: endpoints
    ``u[i]``, ``v[i]`` (indices into ``vertices``, the graph's vertex
    order) and key ``value[i]``, ascending.  ``key_space`` is the
    paper's ``n^3`` bound.

    >>> from repro.graph import Graph
    >>> g = Graph(edges=[("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)])
    >>> keys = draw_contraction_keys(g, seed=1)
    >>> keys.u, keys.v, keys.value
    ([1, 0, 0], [2, 2, 1], [6, 12, 18])
    >>> keys.edges_by_key()
    [(6, 'b', 'c'), (12, 'a', 'c'), (18, 'a', 'b')]
    >>> keys.of("b", "a")
    18
    >>> keys.mst.key  # (a, b) closes a cycle
    [6, 12]
    """

    vertices: list[Vertex]
    u: list[int]
    v: list[int]
    value: list[int]
    key_space: int

    @property
    def max_key(self) -> int:
        """The largest assigned key (0 without edges)."""
        return self.value[-1] if self.value else 0

    @cached_property
    def key(self) -> dict[EdgeId, int]:
        """``key[(u, v)]`` for both orientations of each edge."""
        V = self.vertices
        key: dict[EdgeId, int] = {}
        for k, a, b in zip(self.value, self.u, self.v):
            key[(V[a], V[b])] = k
            key[(V[b], V[a])] = k
        return key

    def of(self, u: Vertex, v: Vertex) -> int:
        return self.key[(u, v)]

    def edges_by_key(self) -> list[tuple[int, Vertex, Vertex]]:
        """(key, u, v) triples, ascending, one per undirected edge.

        Cached after the first call (keys are immutable); callers must
        not mutate the returned list.
        """
        return self._labelled

    @cached_property
    def _labelled(self) -> list[tuple[int, Vertex, Vertex]]:
        V = self.vertices
        return [(k, V[a], V[b]) for k, a, b in zip(self.value, self.u, self.v)]

    @cached_property
    def mst(self) -> KeyedMST:
        """Kruskal over the rows: unique keys give a unique MST."""
        n = len(self.vertices)
        # IndexDSU's state and rules (path halving, union by size, the
        # first root surviving ties), inlined: this loop is a trial's
        # hottest.
        dsu = IndexDSU(n)
        parent, size = dsu.parent, dsu.size
        mst = KeyedMST([], [], [], [], [])
        for k, a, b in zip(self.value, self.u, self.v):
            ra, rb = a, b
            while parent[ra] != ra:
                parent[ra] = ra = parent[parent[ra]]
            while parent[rb] != rb:
                parent[rb] = rb = parent[parent[rb]]
            if ra == rb:
                continue
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]
            mst.key.append(k)
            mst.u.append(a)
            mst.v.append(b)
            mst.root.append(ra)
            mst.absorbed.append(rb)
            if len(mst.key) == n - 1:
                break
        return mst


def _spread_ranks(m: int, key_space: int) -> list[int]:
    """Rank ``1..m`` spread over ``[1, key_space]`` preserving order.

    A simple graph has ``m <= n(n-1)/2 < n^3 = key_space`` edges, so
    the stride is at least 1 and ``m * stride < key_space``: the keys
    are unique and inside the key space.
    """
    stride = key_space // (m + 1)
    return list(range(stride, (m + 1) * stride, stride))


def _ranked(graph: Graph, order: Sequence[int], key_space: int) -> ContractionKeys:
    """Keys for ``graph``'s edge rows taken in ``order``."""
    us, vs, _ = graph._columns()
    return ContractionKeys(
        vertices=graph.vertices(),
        u=us[order].tolist(),
        v=vs[order].tolist(),
        value=_spread_ranks(len(order), key_space),
        key_space=key_space,
    )


def draw_contraction_keys(graph: Graph, *, seed: int = 0) -> ContractionKeys:
    """Draw weight-biased unique keys for every edge of ``graph``."""
    rng = random.Random(seed)
    n = graph.num_vertices
    key_space = max(1, n**3)
    ws = graph._columns()[2]
    m = len(ws)
    # The uniform draws must come from the Python RNG one edge at a
    # time, in edge-storage order — the reproducibility contract ties
    # seeds to this exact stream.  Everything downstream (ordering,
    # rank spreading) is vectorized over the columns.
    # random() returns multiples of 2**-53, so only 0.0 needs the floor.
    draw = rng.random
    unif = [draw() or 1e-300 for _ in range(m)]
    # Exp(1)/w: smaller for heavier edges => contracted earlier.  The
    # per-element math.log keeps clock values bit-identical to the
    # scalar implementation (SIMD log kernels may round differently).
    clocks = -np.fromiter(map(math.log, unif), np.float64, count=m)
    clocks /= ws
    return _ranked(graph, np.argsort(clocks, kind="stable"), key_space)


def draw_uniform_keys(graph: Graph, *, seed: int = 0) -> ContractionKeys:
    """Weight-*oblivious* keys: a uniform random edge permutation.

    This is the paper's phrasing ("assign random weights to the edges")
    taken literally on a weighted graph — the ablation arm of A4.  On
    unweighted inputs it coincides in distribution with
    :func:`draw_contraction_keys`; on skewed weights it contracts light
    cross edges far too early, which is why weighted graphs use
    exponential clocks instead (an erratum to the paper's phrasing;
    ablation A4 in ``benchmarks/bench_ablations.py`` measures it).
    """
    rows = list(range(graph.num_edges))
    random.Random(seed).shuffle(rows)
    return _ranked(graph, rows, max(1, graph.num_vertices**3))
