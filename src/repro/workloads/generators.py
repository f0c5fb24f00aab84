"""Graph workload generators for the experiments.

Each generator documents which experiment(s) it serves; the
experiments (E1–E15) are indexed by ``_CLAIMS`` in
:mod:`repro.analysis.writer` and run by :mod:`repro.analysis.harness`.  Planted instances return both the graph and the
planted optimum so approximation ratios can be computed without an
exact solver on large inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..graph import Graph


@dataclass(frozen=True)
class PlantedCutInstance:
    """A graph with a planted minimum cut of known weight and side."""

    graph: Graph
    planted_side: frozenset
    planted_weight: float


@dataclass(frozen=True)
class PlantedKCutInstance:
    """A graph with a planted k-way partition of known crossing weight."""

    graph: Graph
    parts: tuple[frozenset, ...]
    planted_weight: float


def planted_cut(
    n: int,
    *,
    cross_edges: int = 3,
    inner_degree: int = 6,
    cross_weight: float = 1.0,
    inner_weight: float = 4.0,
    seed: int = 0,
) -> PlantedCutInstance:
    """Two dense communities joined by a few light edges (E1/E2 workload).

    Each half is wired as a random ``inner_degree``-regular-ish graph of
    heavy edges plus a Hamiltonian cycle (guaranteeing connectivity);
    ``cross_edges`` light edges join the halves.  The planted cut is the
    bipartition, with weight ``cross_edges * cross_weight``; parameters
    default to a regime where it is the unique minimum cut.
    """
    if n < 4:
        raise ValueError("planted_cut needs n >= 4")
    rng = random.Random(seed)
    half = n // 2
    g = Graph(vertices=range(n))
    for lo, hi in ((0, half), (half, n)):
        size = hi - lo
        for i in range(size):  # connectivity cycle
            g.add_edge(lo + i, lo + (i + 1) % size, inner_weight)
        extra = max(0, (inner_degree - 2) * size // 2)
        for _ in range(extra):
            u = rng.randrange(lo, hi)
            v = rng.randrange(lo, hi)
            if u != v:
                g.add_edge(u, v, inner_weight)
    for _ in range(cross_edges):
        u = rng.randrange(0, half)
        v = rng.randrange(half, n)
        g.add_edge(u, v, cross_weight)
    side = frozenset(range(half))
    return PlantedCutInstance(
        graph=g, planted_side=side, planted_weight=g.cut_weight(side)
    )


def planted_kcut(
    n: int,
    k: int,
    *,
    cross_edges_per_pair: int = 2,
    inner_weight: float = 5.0,
    cross_weight: float = 1.0,
    seed: int = 0,
) -> PlantedKCutInstance:
    """``k`` dense communities sparsely interconnected (E5 workload)."""
    if k < 2 or n < 2 * k:
        raise ValueError("need k >= 2 and n >= 2k")
    rng = random.Random(seed)
    bounds = [round(i * n / k) for i in range(k + 1)]
    g = Graph(vertices=range(n))
    parts = []
    for p in range(k):
        lo, hi = bounds[p], bounds[p + 1]
        size = hi - lo
        for i in range(size):
            g.add_edge(lo + i, lo + (i + 1) % size, inner_weight)
        for _ in range(size):
            u, v = rng.randrange(lo, hi), rng.randrange(lo, hi)
            if u != v:
                g.add_edge(u, v, inner_weight)
        parts.append(frozenset(range(lo, hi)))
    for p in range(k):
        for q in range(p + 1, k):
            for _ in range(cross_edges_per_pair):
                u = rng.randrange(bounds[p], bounds[p + 1])
                v = rng.randrange(bounds[q], bounds[q + 1])
                g.add_edge(u, v, cross_weight)
    return PlantedKCutInstance(
        graph=g,
        parts=tuple(parts),
        planted_weight=g.partition_cut_weight(parts),
    )


def erdos_renyi(n: int, p: float, *, weighted: bool = False, seed: int = 0) -> Graph:
    """G(n, p) conditioned on connectivity (edges added until connected)."""
    rng = random.Random(seed)
    g = Graph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = rng.randint(1, 10) if weighted else 1.0
                g.add_edge(u, v, w)
    # Stitch components together so cut problems are non-degenerate.
    comps = g.components()
    for a, b in zip(comps, comps[1:]):
        w = rng.randint(1, 10) if weighted else 1.0
        g.add_edge(a[0], b[0], w)
    return g


def random_regular_ish(n: int, d: int, *, seed: int = 0) -> Graph:
    """Connected graph with (almost) uniform degree ``d`` (E2 workload).

    A union of ``d // 2`` random Hamiltonian cycles — every vertex gets
    degree ``2 * (d // 2)``; collisions are resolved by weight merging,
    so degrees can dip slightly below on small n.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    rng = random.Random(seed)
    g = Graph(vertices=range(n))
    for _ in range(d // 2):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            u, v = perm[i], perm[(i + 1) % n]
            if u != v:
                g.add_edge(u, v, 1.0)
    return g


def cycle(n: int, *, weight: float = 1.0) -> Graph:
    """Single n-cycle: min cut = 2*weight, attained by every arc pair.

    The 1-vs-2-cycle workload of the MPC lower-bound conjecture the
    paper's introduction discusses (E1/E7 workload).
    """
    g = Graph(vertices=range(n))
    for i in range(n):
        g.add_edge(i, (i + 1) % n, weight)
    return g


def two_cycles(n: int, *, weight: float = 1.0) -> Graph:
    """Two disjoint cycles of n/2 vertices each (1-vs-2-cycle instance)."""
    if n < 6 or n % 2:
        raise ValueError("need even n >= 6")
    half = n // 2
    g = Graph(vertices=range(n))
    for i in range(half):
        g.add_edge(i, (i + 1) % half, weight)
        g.add_edge(half + i, half + (i + 1) % half, weight)
    return g


def wheel(n: int, *, rim_weight: float = 1.0, spoke_weight: float = 1.0) -> Graph:
    """Wheel graph: hub 0 connected to an (n-1)-cycle rim."""
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    g = Graph(vertices=range(n))
    rim = n - 1
    for i in range(1, n):
        g.add_edge(0, i, spoke_weight)
        g.add_edge(i, 1 + (i % rim), rim_weight)
    return g


def grid(rows: int, cols: int, *, weight: float = 1.0) -> Graph:
    """``rows x cols`` grid graph; min cut = min(rows, cols) * weight-ish."""
    g = Graph(vertices=range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1, weight)
            if r + 1 < rows:
                g.add_edge(v, v + cols, weight)
    return g


def barbell(n: int, *, bridge_weight: float = 1.0, seed: int = 0) -> PlantedCutInstance:
    """Two cliques joined by a single bridge — the extreme planted cut."""
    if n < 6 or n % 2:
        raise ValueError("need even n >= 6")
    half = n // 2
    g = Graph(vertices=range(n))
    for lo, hi in ((0, half), (half, n)):
        for u in range(lo, hi):
            for v in range(u + 1, hi):
                g.add_edge(u, v, 1.0)
    g.add_edge(0, half, bridge_weight)
    side = frozenset(range(half))
    return PlantedCutInstance(
        graph=g, planted_side=side, planted_weight=bridge_weight
    )


def power_law(n: int, *, exponent: float = 2.5, seed: int = 0) -> Graph:
    """Connected preferential-attachment-flavoured graph (skewed degrees)."""
    rng = random.Random(seed)
    g = Graph(vertices=range(n))
    targets = [0]
    for v in range(1, n):
        u = targets[rng.randrange(len(targets))]
        g.add_edge(v, u, 1.0)
        targets.extend([v, u])
        # occasional extra edge for cycles
        if v > 2 and rng.random() < 0.3:
            u2 = targets[rng.randrange(len(targets))]
            if u2 != v and not g.has_edge(v, u2):
                g.add_edge(v, u2, 1.0)
    return g


def leaf_spine(
    spines: int = 4,
    leaves: int = 8,
    *,
    uplink: float = 40.0,
    degraded_leaf: int | None = None,
    degraded_factor: float = 0.1,
) -> Graph:
    """A two-tier leaf–spine datacenter fabric (weighted, bipartite-ish).

    Every leaf connects to every spine with ``uplink`` capacity;
    ``degraded_leaf`` (if given) has its uplinks scaled by
    ``degraded_factor`` — planting a known bisection bottleneck, the
    workload of the network-reliability example and the paper's
    "massive systems" motivation.  Vertices are ``("spine", i)`` and
    ``("leaf", j)``.
    """
    if spines < 1 or leaves < 1:
        raise ValueError("need at least one spine and one leaf")
    if degraded_leaf is not None and not 0 <= degraded_leaf < leaves:
        raise ValueError("degraded_leaf out of range")
    if not 0 < degraded_factor <= 1.0:
        raise ValueError("degraded_factor must be in (0, 1]")
    g = Graph()
    for j in range(leaves):
        scale = (
            degraded_factor
            if degraded_leaf is not None and j == degraded_leaf
            else 1.0
        )
        for i in range(spines):
            g.add_edge(("leaf", j), ("spine", i), uplink * scale)
    return g
