"""Uniform sparsest cut: exact enumeration, a Gomory–Hu sweep
approximation, and an optimum-preserving kernel.

The uniform sparsest cut of a weighted graph ``G = (V, E, w)`` with
node sizes ``mu`` (all 1 by default) minimises

    phi(S) = w(S, V \\ S) / (mu(S) * mu(V \\ S))

over nonempty proper subsets ``S``.  The serving layer exposes three
entry points:

- :func:`exact_sparsest_cut` — deterministic enumeration of all
  ``2^(n-1) - 1`` bipartitions, the ground truth for ``n <= 16``.
- :func:`approx_sparsest_cut` — the Kolmogorov-style single-commodity
  reduction: instead of solving a multicommodity relaxation, sweep the
  cuts certified by ``n - 1`` max-flow calls (a fresh Gomory–Hu tree),
  add singleton and component candidates, and refine with a seeded
  deterministic local search.  On the literature corpora this tracks
  the exact optimum well within the ``O(sqrt(log n))`` envelope the
  tests assert.
- :func:`sparsest_kernel` — contracts every edge too heavy to be cut
  by any solution sparser than a known upper bound, shrinking the
  instance while preserving the optimum exactly.

Everything here is a pure function of graph *content* (vertex order,
edge rows, weights): no randomness escapes the seeded local search, so
repeated calls — and calls on bit-identical warm/cold replicas — return
bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from ..flow import gomory_hu_tree
from ..graph import Graph

EXACT_LIMIT = 16


@dataclass(frozen=True)
class SparsestCutResult:
    """One sparsest-cut answer: the side, its pieces, and provenance."""

    side: frozenset
    weight: float
    demand: float
    sparsity: float
    method: str
    candidates: int

    def as_dict(self) -> dict:
        return {
            "weight": self.weight,
            "demand": self.demand,
            "sparsity": self.sparsity,
            "method": self.method,
            "candidates": self.candidates,
        }


def _size_map(graph: Graph, sizes: Optional[Mapping] = None) -> Dict:
    if sizes is None:
        return {v: 1.0 for v in graph.vertices()}
    out = {v: float(sizes[v]) for v in graph.vertices()}
    if any(s <= 0 for s in out.values()):
        raise ValueError("node sizes must be positive")
    return out


def _sort_key(v) -> tuple:
    return (type(v).__name__, repr(v))


def _canonical_side(graph: Graph, side: Iterable) -> frozenset:
    """Orient a bipartition so the first canonical vertex is *outside*.

    Both orientations of a cut have the same sparsity; fixing one makes
    every solver in this module return byte-identical sides for
    byte-identical graphs.
    """
    side = frozenset(side)
    anchor = graph.vertices()[0]
    if anchor in side:
        side = frozenset(graph.vertices()) - side
    return side


def cut_sparsity(graph: Graph, side: Iterable, *,
                 sizes: Optional[Mapping] = None) -> float:
    """Sparsity ``w(S, V-S) / (mu(S) * mu(V-S))`` of one bipartition."""
    side = frozenset(side)
    mu = _size_map(graph, sizes)
    total = sum(mu.values())
    inside = sum(mu[v] for v in side)
    if inside <= 0 or inside >= total:
        raise ValueError("side must be a nonempty proper subset")
    return graph.cut_weight(side) / (inside * (total - inside))


def exact_sparsest_cut(graph: Graph, *,
                       sizes: Optional[Mapping] = None) -> SparsestCutResult:
    """Exact uniform sparsest cut by vectorized enumeration (n <= 16).

    Fixes the first canonical vertex outside ``S`` so each bipartition
    is enumerated exactly once, evaluates all ``2^(n-1) - 1`` subsets
    with numpy bit arithmetic, and breaks sparsity ties by the smallest
    subset bitmask — a pure function of the graph's canonical vertex
    order.
    """
    vs = graph.vertices()
    n = len(vs)
    if n < 2:
        raise ValueError("need n >= 2")
    if n > EXACT_LIMIT:
        raise ValueError(f"exact enumeration limited to n <= {EXACT_LIMIT}")
    mu = _size_map(graph, sizes)
    free = vs[1:]  # vs[0] is pinned to the complement
    bit = {v: i for i, v in enumerate(free)}

    masks = np.arange(1, 1 << (n - 1), dtype=np.int64)
    cut_w = np.zeros(masks.shape, dtype=np.float64)
    for u, v, w in graph.edges():
        if u == vs[0]:
            u_in = np.zeros(masks.shape, dtype=bool)
        else:
            u_in = ((masks >> bit[u]) & 1).astype(bool)
        if v == vs[0]:
            v_in = np.zeros(masks.shape, dtype=bool)
        else:
            v_in = ((masks >> bit[v]) & 1).astype(bool)
        cut_w += np.where(u_in != v_in, float(w), 0.0)

    size_arr = np.array([mu[v] for v in free], dtype=np.float64)
    inside = np.zeros(masks.shape, dtype=np.float64)
    for i, v in enumerate(free):
        inside += np.where(((masks >> i) & 1).astype(bool), size_arr[i], 0.0)
    total = float(sum(mu.values()))
    demand = inside * (total - inside)
    sparsity = cut_w / demand

    best = float(sparsity.min())
    winners = np.nonzero(sparsity == best)[0]
    mask = int(masks[int(winners.min())])
    side = frozenset(v for v in free if (mask >> bit[v]) & 1)
    return SparsestCutResult(
        side=side,
        weight=float(cut_w[int(winners.min())]),
        demand=float(demand[int(winners.min())]),
        sparsity=best,
        method="exact-enum",
        candidates=int(masks.shape[0]),
    )


def _evaluate(graph: Graph, mu: Mapping, total: float,
              side: frozenset) -> Tuple[float, float, float]:
    inside = sum(mu[v] for v in side)
    weight = graph.cut_weight(side)
    demand = inside * (total - inside)
    return weight, demand, weight / demand


def _local_refine(graph: Graph, mu: Mapping, total: float,
                  side: frozenset, *, max_rounds: int = 8) -> frozenset:
    """Deterministic single-vertex hill climbing from ``side``."""
    vs = graph.vertices()
    universe = frozenset(vs)
    current = side
    _, _, best = _evaluate(graph, mu, total, current)
    for _ in range(max_rounds):
        improved = False
        for v in vs:
            candidate = (current - {v}) if v in current else (current | {v})
            if not candidate or candidate == universe:
                continue
            _, _, phi = _evaluate(graph, mu, total, candidate)
            if phi < best:
                best, current, improved = phi, candidate, True
        if not improved:
            break
    return current


def approx_sparsest_cut(graph: Graph, *, sizes: Optional[Mapping] = None,
                        seed: int = 0, trials: int = 2) -> SparsestCutResult:
    """Single-commodity sparsest-cut sweep with seeded local refinement.

    Candidate cuts come from ``n - 1`` max-flows (each Gomory–Hu tree
    edge records the bipartition its flow certified), the ``n``
    singleton cuts, the component cut when the graph is disconnected,
    and ``trials`` seeded random restarts of a deterministic local
    search.  The returned cut is the sparsest candidate; ties break on
    the canonical side ordering, so the answer is reproducible.
    """
    import random as _random

    vs = graph.vertices()
    n = len(vs)
    if n < 2:
        raise ValueError("need n >= 2")
    mu = _size_map(graph, sizes)
    total = float(sum(mu.values()))

    candidates = []

    components = graph.components()
    if len(components) > 1:
        # Zero-weight cut: any union of components is optimal.
        candidates.append(_canonical_side(graph, components[0]))
    else:
        tree = gomory_hu_tree(graph)
        for edge in tree.edges:
            if edge.child_side:
                candidates.append(_canonical_side(graph, edge.child_side))

    for v in vs:
        candidates.append(_canonical_side(graph, frozenset([v])))

    for t in range(max(0, int(trials))):
        rng = _random.Random((int(seed) << 8) ^ t)
        start = frozenset(v for v in vs[1:] if rng.random() < 0.5)
        if not start:
            start = frozenset([vs[-1]])
        candidates.append(
            _canonical_side(graph, _local_refine(graph, mu, total, start)))

    refined = [_canonical_side(graph, _local_refine(graph, mu, total, c))
               for c in candidates]

    def rank(side: frozenset):
        weight, demand, phi = _evaluate(graph, mu, total, side)
        return (phi, len(side), tuple(sorted(_sort_key(v) for v in side)),
                weight, demand)

    scored = sorted({(rank(c), c) for c in refined}, key=lambda item: item[0])
    (phi, _, _, weight, demand), side = scored[0]
    return SparsestCutResult(
        side=side,
        weight=weight,
        demand=demand,
        sparsity=phi,
        method="gh-sweep" + (f"+local{trials}" if trials else ""),
        candidates=len(refined),
    )


def sparsest_kernel(graph: Graph, *, upper: float,
                    sizes: Optional[Mapping] = None):
    """Contract edges no sparsest cut below ``upper`` can cross.

    Any cut separating ``u`` from ``v`` pays at least ``w(u, v)`` and
    its demand is at most ``(mu(V) / 2)^2``, so its sparsity is at
    least ``w(u, v) / (mu(V)^2 / 4)``.  If that exceeds ``upper`` — the
    sparsity of a cut we already hold — the optimum never separates
    ``u`` and ``v`` and the edge can be contracted.  Iterates to a
    fixpoint because merged parallel edges get heavier.

    Returns ``(kernel, kernel_sizes, blocks)`` where ``blocks`` maps
    each kernel vertex to the frozenset of original vertices it
    absorbs; lift a kernel-side answer with their union.  The optimum
    sparsity of ``kernel`` (under ``kernel_sizes``) equals the original
    optimum whenever ``upper`` is attained by some real cut.
    """
    mu = _size_map(graph, sizes)
    total = float(sum(mu.values()))
    threshold = float(upper) * (total * total) / 4.0

    current = graph
    blocks = {v: frozenset([v]) for v in graph.vertices()}
    while True:
        parent = {v: v for v in current.vertices()}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        merged = False
        for u, v, w in current.edges():
            if w > threshold:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[rv] = ru
                    merged = True
        if not merged:
            break
        rep = {v: find(v) for v in current.vertices()}
        current, qblocks = current.quotient(rep)
        blocks = {
            root: frozenset().union(*(blocks[m] for m in members))
            for root, members in qblocks.items()
        }
    kernel_sizes = {
        v: sum(mu[orig] for orig in blocks[v]) for v in current.vertices()
    }
    return current, kernel_sizes, blocks
