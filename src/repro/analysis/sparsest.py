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

The local search is deterministic, so :func:`approx_sparsest_cut`
refines each *distinct* start once.  Within a refinement it scores
every single-vertex flip at once from the CSR rows: a flip of ``v``
moves the cut weight by ``w(v -> same side) - w(v -> other side)`` and
the demand by ``mu(v)``.  That estimate only **screens**: a flip is
skipped when a lower bound on its sparsity — the estimate slackened by
the worst-case float error of both the estimate and the exact
evaluation (``(2m + 2 deg + 16) eps`` times the total weight for the
weight, a relative ``(4n + 16) eps mu(V) / min mu`` for the demand) —
is still at least the best sparsity so far, so the exact evaluation
could not have accepted it either.  Every flip that survives the
screen is **confirmed** by the exact evaluation (a full
``Graph.cut_weight`` and a re-summed demand, on the same frozenset the
plain climb builds), and the accept test is ``phi < best`` on those
exact floats.  Every accepted flip therefore compares the same floats
as the plain climb, the state resets to the exact values after it, and
the answer is bit-identical to scoring every flip exactly
(``tests/sparsest_reference.py`` keeps that plain climb).  When the
sizes are too badly scaled for the demand bound (a relative slack above
``1e-6``, or sizes outside ``[1e-150, 1e150]``), every flip is
confirmed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from ..flow import GomoryHuTree, gomory_hu_tree
from ..graph import Graph
from ..graph.dsu import contract_in_order

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
    #: distinct refine starts (0 for exact enumeration)
    starts: int = 0

    def as_dict(self) -> dict:
        return {
            "weight": self.weight,
            "demand": self.demand,
            "sparsity": self.sparsity,
            "method": self.method,
            "candidates": self.candidates,
        }


def _size_map(graph: Graph, sizes: Optional[Mapping] = None) -> Dict:
    """Every vertex's size as a float; rejects a missing vertex and a
    size that is not finite and positive, naming the vertex."""
    if sizes is None:
        return {v: 1.0 for v in graph.vertices()}
    out = {}
    for v in graph.vertices():
        try:
            size = float(sizes[v])
        except KeyError:
            raise ValueError(f"no node size for vertex {v!r}") from None
        if not (math.isfinite(size) and size > 0):
            raise ValueError(
                f"node size of vertex {v!r} must be positive and finite, "
                f"got {size!r}")
        out[v] = size
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


class _FlipScreen:
    """Scores every single-vertex flip of one side at once (O(m)).

    Built once per graph and size map.  :meth:`live` marks the flips
    whose sparsity *might* beat ``best``; the rest provably cannot
    (see the module docstring for the slack), so the climb evaluates
    only the live ones exactly.
    """

    #: absolute headroom on the bound, above any subnormal rounding
    _TINY = 1e-300

    def __init__(self, graph: Graph, mu: Mapping, total: float):
        indptr, nbr, wt, _ = graph.csr()
        vs = graph.vertices()
        n, eps = len(vs), float(np.finfo(np.float64).eps)
        deg = np.diff(indptr)
        self.n, self.total = n, total
        self.src = np.repeat(np.arange(n), deg)
        self.nbr, self.wt = nbr, wt
        self.mu = np.array([mu[v] for v in vs], dtype=np.float64)
        # wt lists each edge twice: twice the total weight, so the
        # weight slack over-covers both sums' error bounds.
        abs_weight = float(np.abs(wt).sum())
        self.weight_slack = (2 * graph.num_edges + 2 * deg + 16) * eps * abs_weight
        low = float(self.mu.min())
        rel = (4 * n + 16) * eps * total / low
        self.on = (rel <= 1e-6 and low >= 1e-150 and total <= 1e150
                   and abs_weight <= 1e150)
        self.demand_scale = 1.0 + 4 * rel

    def live(self, sign: np.ndarray, weight: float, inside: float,
             best: float) -> np.ndarray:
        """Flips of the side ``sign`` (+1 inside, -1 outside; cut weight
        ``weight`` and size sum ``inside``, both exact) that an exact
        check could accept."""
        if not self.on:
            return np.ones(self.n, dtype=bool)
        # w(v -> same side) - w(v -> other side) = sign[v] * sum w sign[u]
        delta = sign * np.bincount(self.src, weights=self.wt * sign[self.nbr],
                                   minlength=self.n)
        flipped = inside - self.mu * sign
        floor = (weight - self.weight_slack) + delta
        bound = flipped * (self.total - flipped) * (best * self.demand_scale)
        # every term is finite (see ``on``), so no NaN reads as "skip"
        return floor <= bound + self._TINY


def _local_refine(graph: Graph, mu: Mapping, total: float,
                  side: frozenset, screen: _FlipScreen, *,
                  max_rounds: int = 8) -> frozenset:
    """Deterministic single-vertex hill climbing from ``side``.

    Scans the vertices in order and takes every flip that lowers the
    sparsity, for up to ``max_rounds`` passes.  ``screen`` skips the
    flips that provably lose; the rest are evaluated exactly, so the
    climb is the one that evaluates every flip exactly.
    """
    vs = graph.vertices()
    n = len(vs)
    universe = frozenset(vs)
    current = side
    sign = np.full(n, -1.0)
    sign[[graph.index_of(v) for v in current]] = 1.0
    weight, _, best = _evaluate(graph, mu, total, current)
    inside = sum(mu[v] for v in current)
    for _ in range(max_rounds):
        improved = False
        i = 0
        while i < n:
            # Between accepted flips the side is fixed, so one screen
            # covers the pass from ``i`` up to the next acceptance.
            live = np.nonzero(screen.live(sign, weight, inside, best)[i:])[0] + i
            for j in live.tolist():
                v = vs[j]
                candidate = (current - {v}) if v in current else (current | {v})
                if not candidate or candidate == universe:
                    continue
                cand_weight, _, phi = _evaluate(graph, mu, total, candidate)
                if phi < best:
                    best, current, improved = phi, candidate, True
                    weight = cand_weight
                    inside = sum(mu[u] for u in current)
                    sign[j] = -sign[j]
                    i = j + 1
                    break
            else:
                i = n
        if not improved:
            break
    return current


def approx_sparsest_cut(graph: Graph, *, sizes: Optional[Mapping] = None,
                        seed: int = 0, trials: int = 2,
                        tree: Optional[GomoryHuTree] = None) -> SparsestCutResult:
    """Single-commodity sparsest-cut sweep with seeded local refinement.

    Candidate cuts come from ``n - 1`` max-flows (each Gomory–Hu tree
    edge records the bipartition its flow certified), the ``n``
    singleton cuts, the component cut when the graph is disconnected,
    and ``trials`` seeded random restarts of a deterministic local
    search.  The returned cut is the sparsest candidate; ties break on
    the canonical side ordering, so the answer is reproducible.

    ``tree`` is a Gomory–Hu tree of ``graph`` built by
    :func:`~repro.flow.gomory_hu_tree` on this very content (same
    vertex order and edge rows), for callers that keep one; without
    it, a connected graph gets a fresh one.  Each distinct candidate
    is refined once; ``candidates`` counts them with repeats and
    ``starts`` without.
    """
    import random as _random

    vs = graph.vertices()
    n = len(vs)
    if n < 2:
        raise ValueError("need n >= 2")
    mu = _size_map(graph, sizes)
    total = float(sum(mu.values()))
    screen = _FlipScreen(graph, mu, total)

    def refine(side: frozenset) -> frozenset:
        return _canonical_side(
            graph, _local_refine(graph, mu, total, side, screen))

    candidates = []

    components = graph.components()
    if len(components) > 1:
        # Zero-weight cut: any union of components is optimal.
        candidates.append(_canonical_side(graph, components[0]))
    else:
        if tree is None:
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
        candidates.append(refine(start))

    # Refinement is deterministic: a repeated start (a Gomory–Hu side
    # that is also a singleton, say) would climb to the same side.
    starts = dict.fromkeys(candidates)
    refined = [refine(c) for c in starts]

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
        candidates=len(candidates),
        starts=len(starts),
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
        us, vs, ws = current._columns()
        heavy = ws > threshold
        # (v, u): each heavy edge hangs v's root under u's, so u's
        # side names the block.
        contracted = contract_in_order(current, vs[heavy], us[heavy])
        if contracted is None:
            break
        current, qblocks, _ = contracted
        blocks = {
            root: frozenset().union(*(blocks[m] for m in members))
            for root, members in qblocks.items()
        }
    kernel_sizes = {
        v: sum(mu[orig] for orig in blocks[v]) for v in current.vertices()
    }
    return current, kernel_sizes, blocks
