"""Frozen per-edge object path of Algorithm 3, steps 3-4 (the reference).

This is the interval/sweep pipeline ``repro.core`` ran before it moved
to edge columns: a dict-based level structure, one generator call per
edge per level producing :class:`TimeInterval` objects, and one numpy
sweep per leader.  It is kept verbatim -- including the sweep's
absolute ``1e-12`` record rule, which loses exactness on small weights
-- as the differential reference for the columnar path and as the
"old" side of ``benchmarks/bench_singleton.py``.  Its low-depth
decomposition is the frozen copy in ``tests/low_depth_reference.py``.
Nothing in ``src/`` imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterator, Sequence

import numpy as np

from low_depth_reference import LowDepthDecomposition, low_depth_decomposition
from repro.core.contraction import bag_at, mst_of_keys
from repro.graph import Cut
from repro.trees.rooted import root_tree

Vertex = Hashable


@dataclass
class LevelStructure:
    """Leaders, join times and ldr_times for one decomposition level."""

    level: int
    leader_of: dict
    join_time: dict
    ldr_time: dict


def build_level_structure(decomp, keys, level, *, max_tree_key):
    tree = decomp.tree
    label = decomp.label
    leader_of: dict = {}
    join_time: dict = {}
    ldr_time: dict = {}
    leaders = [v for v, l in label.items() if l == level]
    for r in leaders:
        leader_of[r] = r
        join_time[r] = 0
        stack = [r]
        first_crossing = None
        while stack:
            v = stack.pop()
            t_v = join_time[v]
            neighbours = list(tree.children[v])
            p = tree.parent[v]
            if p is not None:
                neighbours.append(p)
            for u in neighbours:
                k = keys.of(u, v)
                if label[u] >= level:
                    if u not in join_time:
                        leader_of[u] = r
                        join_time[u] = max(t_v, k)
                        stack.append(u)
                else:
                    crossing = max(t_v, k)
                    if first_crossing is None or crossing < first_crossing:
                        first_crossing = crossing
        if first_crossing is None:
            ldr_time[r] = max_tree_key - 1
        else:
            ldr_time[r] = first_crossing - 1
    return LevelStructure(level, leader_of, join_time, ldr_time)


@dataclass(frozen=True)
class TimeInterval:
    """A closed integer interval ``[start, end]`` weighted by the edge."""

    start: int
    end: int
    weight: float

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError("empty interval must not be constructed")
        if self.start < 0:
            raise ValueError("interval starts at a negative time")


def edge_intervals(graph, level) -> dict:
    """All non-empty time intervals of this level, grouped by leader."""
    out: dict = {r: [] for r in level.ldr_time}
    for x, y, w in graph.edges():
        for r, a, b in _intervals_for_edge(level, x, y):
            out[r].append(TimeInterval(start=a, end=b, weight=w))
    return out


def _intervals_for_edge(level, x, y) -> Iterator[tuple]:
    rx = level.leader_of.get(x)
    ry = level.leader_of.get(y)
    if rx is None and ry is None:
        return
    if rx is not None and rx == ry:
        tx, ty = level.join_time[x], level.join_time[y]
        a, b = min(tx, ty), max(tx, ty) - 1
        b = min(b, level.ldr_time[rx])
        if a <= b:
            yield (rx, a, b)
        return
    for r, v in ((rx, x), (ry, y)):
        if r is None:
            continue
        a = level.join_time[v]
        b = level.ldr_time[r]
        if a <= b:
            yield (r, a, b)


def min_interval_overlap(
    intervals: Sequence[TimeInterval], domain_end: int
) -> tuple[float, int]:
    """Per-leader sweep with the absolute ``1e-12`` record rule."""
    if domain_end < 0:
        raise ValueError("domain_end must be >= 0")
    if not intervals:
        return (0.0, 0)
    starts = np.array([iv.start for iv in intervals], dtype=np.int64)
    ends = np.array([iv.end for iv in intervals], dtype=np.int64)
    weights = np.array([iv.weight for iv in intervals], dtype=np.float64)
    positions = np.concatenate([starts, ends + 1])
    deltas = np.concatenate([weights, -weights])
    keep = positions <= domain_end
    positions, deltas = positions[keep], deltas[keep]
    if positions.size == 0:
        return (0.0, 0)
    order = np.argsort(positions, kind="stable")
    positions, deltas = positions[order], deltas[order]
    uniq, idx = np.unique(positions, return_index=True)
    seg_delta = np.add.reduceat(deltas, idx)
    coverage = np.cumsum(seg_delta)
    best_w, best_t = np.inf, 0
    if uniq[0] > 0:
        best_w, best_t = 0.0, 0
    for p, c in zip(uniq, coverage):
        if c < best_w - 1e-12:
            best_w, best_t = float(c), int(p)
    return (float(best_w), int(best_t))


def reference_segments(
    graph, keys, decomp: LowDepthDecomposition, max_tree_key: int
) -> list[tuple[Vertex, float, int]]:
    """``(leader, weight, time)`` per sweep, in (level, leader) order."""
    out = []
    for level_index in range(1, decomp.height + 1):
        level = build_level_structure(
            decomp, keys, level_index, max_tree_key=max_tree_key
        )
        for leader, intervals in edge_intervals(graph, level).items():
            weight, t = min_interval_overlap(intervals, level.ldr_time[leader])
            out.append((leader, weight, t))
    return out


def reference_steps_3_4(
    graph, keys, decomp: LowDepthDecomposition, max_tree_key: int
) -> tuple[float, Vertex, int]:
    """Steps 3-4 on the object path: ``(weight, leader, time)``."""
    best_weight = math.inf
    best_leader = None
    best_time = 0
    for leader, weight, t in reference_segments(graph, keys, decomp, max_tree_key):
        if weight < best_weight:
            best_weight, best_leader, best_time = weight, leader, t
    return float(best_weight), best_leader, best_time


def steps_1_2(graph, keys) -> tuple[LowDepthDecomposition, int]:
    """Algorithm 3's MST and low-depth decomposition, as the solver runs them."""
    mst = mst_of_keys(graph, keys)
    edges = [(u, v) for _, u, v in mst]
    tree = root_tree(graph.vertices(), edges)
    decomp = low_depth_decomposition(graph.vertices(), edges, precomputed_tree=tree)
    return decomp, max(k for k, _, _ in mst)


def reference_singleton(graph, keys) -> tuple[float, Vertex, int]:
    """Algorithm 3's ``(weight, leader, time)`` on the frozen object path,
    with the solver's witness extraction, so it times like a whole call."""
    decomp, max_tree_key = steps_1_2(graph, keys)
    weight, leader, t = reference_steps_3_4(graph, keys, decomp, max_tree_key)
    cut = Cut.of(graph, bag_at(graph, keys, leader, t))
    if abs(cut.weight - weight) > 1e-6 * max(1.0, abs(weight)):
        raise AssertionError(f"sweep minimum {weight} != witness {cut.weight}")
    return weight, leader, t
