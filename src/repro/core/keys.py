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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from ..graph import Graph

EdgeId = tuple[Hashable, Hashable]


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
    """Weight-*oblivious* keys: a uniform random edge permutation.

    This is the paper's phrasing ("assign random weights to the edges")
    taken literally on a weighted graph — the ablation arm of A4.  On
    unweighted inputs it coincides in distribution with
    :func:`draw_contraction_keys`; on skewed weights it contracts light
    cross edges far too early, which is why weighted graphs use
    exponential clocks instead (an erratum to the paper's phrasing;
    ablation A4 in ``benchmarks/bench_ablations.py`` measures it).
    """
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
