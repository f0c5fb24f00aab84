"""Cut values and validation helpers shared across the library.

A *cut* is represented by one side (a frozen vertex set); its weight is
evaluated against a given graph.  A *k-cut* is a partition into k
non-empty parts; its weight is the total weight of edges joining
different parts (matching the paper's ``sum_i delta(V_i)`` divided by
two — see :func:`kcut_weight` for the convention note).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .graph import Graph


@dataclass(frozen=True)
class Cut:
    """A 2-cut: one side plus its evaluated weight."""

    side: frozenset
    weight: float

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("cut weight cannot be negative")

    @staticmethod
    def of(graph: Graph, side: Iterable[Hashable]) -> "Cut":
        fs = frozenset(side)
        if not fs or len(fs) >= graph.num_vertices:
            raise ValueError("cut side must be a proper non-empty subset")
        return Cut(side=fs, weight=graph.cut_weight(fs))

    def validate(self, graph: Graph) -> None:
        """Re-evaluate against ``graph`` and check stored weight."""
        actual = graph.cut_weight(self.side)
        if abs(actual - self.weight) > 1e-9 * max(1.0, abs(actual)):
            raise ValueError(
                f"stored cut weight {self.weight} != evaluated {actual}"
            )


@dataclass(frozen=True)
class KCut:
    """A k-cut: the partition plus its evaluated weight."""

    parts: tuple[frozenset, ...]
    weight: float

    @staticmethod
    def of(graph: Graph, parts: Sequence[Iterable[Hashable]]) -> "KCut":
        frozen = tuple(frozenset(p) for p in parts)
        if any(not p for p in frozen):
            raise ValueError("k-cut parts must be non-empty")
        total = sum(len(p) for p in frozen)
        union = set().union(*frozen)
        if total != len(union) or len(union) != graph.num_vertices:
            raise ValueError("parts must partition the vertex set")
        return KCut(parts=frozen, weight=graph.partition_cut_weight(frozen))

    @property
    def k(self) -> int:
        return len(self.parts)


def singleton_cut_weight(graph: Graph, v: Hashable) -> float:
    """Weight of the singleton cut ``({v}, V-v)`` = weighted degree."""
    return graph.degree(v)


def min_singleton_cut(graph: Graph) -> Cut:
    """Best singleton cut of the graph (baseline / sanity bound).

    Served from the cached degree vector; ``argmin`` keeps the
    first-index tie-break of the scalar scan.
    """
    best_v = graph.vertices()[int(np.argmin(graph.degree_vector()))]
    return Cut.of(graph, [best_v])


def kcut_weight(graph: Graph, parts: Sequence[Iterable[Hashable]]) -> float:
    """Weight of a k-cut as *edges between different parts*.

    The paper states the objective as ``sum_i delta(V_i)`` which counts
    every crossing edge twice; the standard Min k-Cut objective (and
    Saran–Vazirani's) counts each edge once.  Approximation ratios are
    identical under either convention; we use the count-once form
    everywhere and note the factor in EXPERIMENTS.md.
    """
    return graph.partition_cut_weight([list(p) for p in parts])


def compose_blocks(outer: dict, inner: dict) -> dict:
    """Compose two levels of quotient maps: ``inner`` maps the new
    quotient's vertices to ``outer``'s, ``outer`` maps those to the
    original vertices.  Blocks keep their order.

    >>> compose_blocks({"a": [0, 1], "b": [2], "c": [3]}, {"x": ["c", "a"], "y": ["b"]})
    {'x': [3, 0, 1], 'y': [2]}
    """
    return {
        rep: [orig for member in members for orig in outer[member]]
        for rep, members in inner.items()
    }


def lift_cut(blocks: dict, side: Iterable[Hashable]) -> frozenset:
    """Lift a cut side of a quotient graph back to original vertices.

    ``blocks`` maps quotient vertices to the original vertices they
    absorbed (as produced by :meth:`Graph.quotient`).
    """
    out: set = set()
    for rep in side:
        out.update(blocks[rep])
    return frozenset(out)
