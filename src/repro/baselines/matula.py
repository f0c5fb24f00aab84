"""Matula's deterministic ``(2+eps)``-approximate Min Cut (1993).

The paper's Theorem 1 gives a *randomized* ``(2+eps)`` approximation in
``O(log log n)`` AMPC rounds.  Matula's linear-time algorithm is the
classic **sequential deterministic** comparator at the same quality
target, so benches can report three points on the quality/model grid:
exact (Stoer–Wagner), deterministic sequential ``2+eps`` (here), and
the paper's parallel ``2+eps`` (Algorithm 1).

The algorithm alternates the two Nagamochi–Ibaraki facts from
:mod:`repro.graph.sparsify`:

1. The minimum weighted degree ``δ`` is itself a cut (a singleton in
   the current contracted graph lifts to a cut of the input), so it is
   always a *valid* candidate.
2. Set ``k = δ / (2 + eps)`` and scan-first-search the graph.  Any edge
   whose level interval reaches past ``k`` (``r(e) + w(e) > k``)
   certifies endpoint connectivity ``> k``, so **if** the true min cut
   ``λ < k``, no such edge crosses a minimum cut and contracting all of
   them preserves it.  If instead ``λ >= k``, then ``δ <= (2+eps) λ``
   and the candidate recorded in step 1 is already good enough.

Progress is unconditional: the capacity below level ``k`` is at most
``k (n-1) = δ (n-1) / (2+eps) < δ n / 2 <=`` total weight, so at least
one edge pokes above ``k`` every iteration and gets contracted.  The
returned cut therefore satisfies ``λ <= weight <= (2+eps) λ``,
deterministically — no boosting, no failure probability.

References: D. Matula, *A linear time 2+ε approximation algorithm for
edge connectivity*, SODA 1993; Karger's lecture notes for the weighted
extension via NI scan intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from ..graph import Cut, Graph, compose_blocks
from ..graph.dsu import contract_in_order
from ..graph.sparsify import ni_edge_starts

Vertex = Hashable


@dataclass
class MatulaResult:
    """Outcome of Matula's algorithm.

    ``cut`` is the best singleton-block cut found; ``stages`` counts
    contraction iterations (``O(log n)`` in practice — each stage
    removes a constant fraction of vertices on bounded-degree inputs).
    """

    cut: Cut
    stages: int

    @property
    def weight(self) -> float:
        return self.cut.weight


def matula_min_cut(graph: Graph, *, eps: float = 0.5) -> MatulaResult:
    """Deterministic ``(2+eps)``-approximate minimum cut.

    Requires a connected graph on at least two vertices (the min cut of
    a disconnected graph is 0; callers split into components first,
    exactly as APX-SPLIT does).
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    n = graph.num_vertices
    if n < 2:
        raise ValueError("min cut needs n >= 2")
    if len(graph.components()) != 1:
        raise ValueError("graph must be connected (min cut would be 0)")

    work = graph.copy()
    # blocks[v] = original vertices contracted into current vertex v.
    blocks: dict[Vertex, list[Vertex]] = {v: [v] for v in graph.vertices()}
    best: Cut | None = None
    stages = 0

    while work.num_vertices > 2:
        stages += 1
        best = _best_singleton(graph, work, blocks, best)
        delta = float(work.degree_vector().min())
        k = delta / (2.0 + eps)

        # Contract every edge whose NI level interval pokes above k,
        # selected in one vectorized pass over the edge columns.
        scan = ni_edge_starts(work)
        us, vs, ws = work.edge_arrays()
        hit = np.flatnonzero(scan.levels_for(work) + ws > k)
        if len(hit) == 0:  # impossible by the counting argument; belt & braces
            raise AssertionError(
                "Matula invariant violated: no contractible edge found"
            )
        # The first certified edge always merges (fresh DSU, distinct
        # endpoints), so a non-empty hit set guarantees progress.
        work, new_blocks, _ = contract_in_order(work, us[hit], vs[hit])
        blocks = compose_blocks(blocks, new_blocks)
        if work.num_edges == 0:
            # quotient collapsed everything into one block: the last
            # recorded candidates already include the surviving cuts.
            break

    best = _best_singleton(graph, work, blocks, best)
    assert best is not None
    return MatulaResult(cut=best, stages=stages)


def matula_min_cut_weight(graph: Graph, *, eps: float = 0.5) -> float:
    """Weight-only convenience wrapper around :func:`matula_min_cut`."""
    return matula_min_cut(graph, eps=eps).weight


def _best_singleton(
    original: Graph,
    work: Graph,
    blocks: dict[Vertex, list[Vertex]],
    best: Cut | None,
) -> Cut | None:
    """Fold the current graph's singleton cuts into the running best.

    A singleton ``{v}`` of the contracted graph is the block
    ``blocks[v]`` of the original graph, with identical cut weight
    (contraction merges parallel edges by weight sum and removes only
    intra-block edges).
    """
    if work.num_vertices < 2:
        return best
    for v in work.vertices():
        w = work.degree(v)
        if best is None or w < best.weight:
            best = Cut.of(original, blocks[v])
    return best
