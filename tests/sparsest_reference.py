"""Frozen sparsest-cut local search (the reference).

This is ``repro.analysis.sparsest.approx_sparsest_cut`` as it was
before refinement learned to skip duplicate starts and to screen
single-vertex flips from the CSR row: every start is refined, and every
flip is scored by a full ``Graph.cut_weight`` pass plus a re-summed
demand.  It is kept verbatim as the differential reference for the
fast solver (``tests/test_sparsest_reference.py``) and as the "old"
side of ``benchmarks/bench_sparsest.py``.  Nothing in ``src/`` imports
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.flow import gomory_hu_tree
from repro.graph import Graph


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
