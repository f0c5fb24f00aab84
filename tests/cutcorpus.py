"""Shared seeded graph corpus for the preprocess/metamorphic suites.

One module so ``tests/test_preprocess.py`` and
``tests/test_metamorphic_cuts.py`` exercise the *same* instances —
the differential harness proves the kernel exact on exactly the corpus
the metamorphic layer perturbs.  Weights are integers or small dyadic
rationals throughout, so every cut weight is exactly representable and
"bit-identical" comparisons are meaningful.
"""

from __future__ import annotations

import random

from repro.graph import Graph
from repro.workloads import (
    barbell,
    clustered_community,
    cycle,
    erdos_renyi,
    grid,
    near_regular_expander,
    planted_cut,
    planted_viecut,
    power_law,
    random_regular_ish,
    two_cycles,
    wheel,
)


def path_graph(weights: list[float]) -> Graph:
    """A path with the given edge weights — fully kernelizable (R3)."""
    return Graph(edges=[(i, i + 1, w) for i, w in enumerate(weights)])


def star_graph(weights: list[float]) -> Graph:
    """Hub 0 with one spoke per weight — fully kernelizable (R3)."""
    return Graph(edges=[(0, i + 1, w) for i, w in enumerate(weights)])


def connected_corpus() -> list[tuple[str, Graph]]:
    """Connected graphs with n >= 2: every solver accepts them."""
    return [
        ("planted16", planted_cut(16, seed=1).graph),
        ("planted24", planted_cut(24, seed=2, cross_edges=4).graph),
        ("er14w", erdos_renyi(14, 0.3, weighted=True, seed=3)),
        ("regular16", random_regular_ish(16, 4, seed=4)),
        ("cycle12", cycle(12)),
        ("cycle9w", cycle(9, weight=2.5)),
        ("grid4x5", grid(4, 5)),
        ("wheel9", wheel(9, rim_weight=2.0)),
        ("barbell10", barbell(10, bridge_weight=2.0).graph),
        ("powerlaw20", power_law(20, seed=5)),
        ("path5", path_graph([3.0, 1.0, 2.0, 5.0])),
        ("star7", star_graph([5.0, 2.0, 7.0, 1.5, 3.0, 4.0])),
        ("single_edge", Graph(edges=[(0, 1, 4.0)])),
        ("triangle", Graph(edges=[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])),
        # VieCut literature shapes (PR 10) — kept small so every suite
        # that sweeps the corpus stays fast
        ("viecut_cc16", clustered_community(16, seed=7).graph),
        ("viecut_exp14", near_regular_expander(14, 4, seed=8)),
        ("viecut_planted18", planted_viecut(18, seed=9).graph),
    ]


def disconnected_corpus() -> list[tuple[str, Graph]]:
    """Graphs whose min cut is 0 (>= 2 components, incl. isolated)."""
    iso = Graph(vertices=[0, 1, 2, 3], edges=[(0, 1, 2.0), (1, 2, 1.0)])
    two_pairs = Graph(edges=[(0, 1, 3.0), (2, 3, 4.0)])
    return [
        ("two_cycles12", two_cycles(12)),
        ("isolated_vertex", iso),
        ("two_pairs", two_pairs),
    ]


def relabel(graph: Graph, tag: str = "x") -> tuple[Graph, dict]:
    """An isomorphic copy with string-tagged vertices.

    Vertices and edges are inserted in the original iteration order, so
    a seeded solver walks the same trajectory on both graphs and the
    relabeling metamorphic is a deterministic bit-level check.
    """
    phi = {v: f"{tag}{i}" for i, v in enumerate(graph.vertices())}
    out = Graph(vertices=[phi[v] for v in graph.vertices()])
    for u, v, w in graph.edges():
        out.add_edge(phi[u], phi[v], w)
    return out, phi


def relabeled_clustered(slot: int, seed: int) -> Graph:
    """A clustered n=64 graph (the shape the served benchmark's
    mutation stream solves) with its integer labels permuted."""
    g = clustered_community(64, intra_p=24 / 64, seed=2022 + slot).graph
    labels = list(range(64))
    random.Random(seed).shuffle(labels)
    label = dict(zip(g.vertices(), labels))
    return Graph(
        vertices=[label[v] for v in g.vertices()],
        edges=[(label[u], label[v], w) for u, v, w in g.edges()],
    )


def scale(graph: Graph, factor: float) -> Graph:
    """Uniformly scaled copy (same insertion order).

    With ``factor`` a power of two the scaling is exact in binary
    floating point, so weight comparisons — and hence every seeded
    solver trajectory — are preserved exactly.
    """
    out = Graph(vertices=graph.vertices())
    for u, v, w in graph.edges():
        out.add_edge(u, v, w * factor)
    return out
