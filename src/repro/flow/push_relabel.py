"""Push–relabel max-flow / s-t min-cut (Goldberg–Tarjan, from scratch).

A second, independently-derived max-flow engine.  Two reasons it earns
its place next to :mod:`repro.flow.dinic`:

* **differential safety** — Gomory–Hu trees (and through them the
  Theorem 2 k-cut analysis) sit on top of ``n - 1`` max-flow calls; a
  bug in the flow engine silently corrupts every downstream quality
  number.  Two engines with disjoint failure modes, cross-checked by
  property tests, make that failure loud.
* **a different worst case** — Dinic's running time grows with the
  number of BFS phases, one per distinct augmenting-path length; its
  DFS walks an explicit path stack, so its depth no longer depends on
  path length.  Push–relabel's ``O(V² √E)`` bound (FIFO + gap
  relabeling here) does not depend on path structure at all.

Implementation: FIFO vertex selection, height array with the **gap
heuristic** (when a height level empties, everything above it on the
source side is lifted to ``n + 1``), arc mirroring identical to the
Dinic module so both engines consume the same undirected reduction.

The returned :class:`~repro.flow.dinic.FlowResult` mirrors Dinic's:
flow value plus the source side of a minimum cut (computed by residual
reachability, *not* from heights, so the two engines' sides are
directly comparable).
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

from ..graph import Graph
from .dinic import FlowResult

Vertex = Hashable
_EPS = 1e-12


class PushRelabelSolver:
    """Reusable FIFO push–relabel solver over a fixed graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._vertices = graph.vertices()
        self._vid = {v: i for i, v in enumerate(self._vertices)}
        self._arc_to: list[int] = []
        self._arc_cap_template: list[float] = []
        self._adj: list[list[int]] = [[] for _ in self._vertices]
        for u, v, w in graph.edges():
            self._add_pair(self._vid[u], self._vid[v], w)

    def _add_pair(self, iu: int, iv: int, cap: float) -> None:
        for a, b in ((iu, iv), (iv, iu)):
            self._adj[a].append(len(self._arc_to))
            self._arc_to.append(b)
            self._arc_cap_template.append(cap)  # undirected: both full

    # ------------------------------------------------------------------
    def max_flow(self, s: Vertex, t: Vertex) -> FlowResult:
        """Maximum s-t flow and the source side of a minimum s-t cut."""
        if s == t:
            raise ValueError("source equals sink")
        n = len(self._vertices)
        si, ti = self._vid[s], self._vid[t]
        cap = list(self._arc_cap_template)
        height = [0] * n
        excess = [0.0] * n
        cur = [0] * n  # current-arc pointers
        count = [0] * (2 * n + 1)  # height histogram for the gap heuristic
        active: deque[int] = deque()
        in_queue = [False] * n

        def push(a: int, v: int) -> None:
            u = self._arc_to[a]
            delta = min(excess[v], cap[a])
            cap[a] -= delta
            cap[a ^ 1] += delta
            excess[v] -= delta
            excess[u] += delta
            if u not in (si, ti) and not in_queue[u] and excess[u] > _EPS:
                in_queue[u] = True
                active.append(u)

        # Initialise: source at height n, saturate its out-arcs.
        height[si] = n
        count[0] = n - 1
        count[n] += 1
        excess[si] = float("inf")
        for a in self._adj[si]:
            if cap[a] > _EPS:
                push(a, si)
        excess[si] = 0.0

        while active:
            v = active.popleft()
            in_queue[v] = False
            while excess[v] > _EPS:
                if cur[v] == len(self._adj[v]):
                    # Relabel v to 1 + min reachable height.
                    old = height[v]
                    new_h = 2 * n
                    for a in self._adj[v]:
                        if cap[a] > _EPS:
                            new_h = min(new_h, height[self._arc_to[a]] + 1)
                    count[old] -= 1
                    if count[old] == 0 and 0 < old < n:
                        # Gap: no vertex left at height `old` — everything
                        # strictly above it (below n) is cut off from t.
                        for u in range(n):
                            if old < height[u] < n and u != si:
                                count[height[u]] -= 1
                                height[u] = n + 1
                                count[n + 1] += 1
                    height[v] = new_h
                    count[new_h] += 1
                    cur[v] = 0
                    if new_h >= 2 * n:
                        break
                    continue
                a = self._adj[v][cur[v]]
                u = self._arc_to[a]
                if cap[a] > _EPS and height[v] == height[u] + 1:
                    push(a, v)
                else:
                    cur[v] += 1

        # Source side: residual reachability from s (mirrors Dinic).
        seen = [False] * n
        seen[si] = True
        dq = deque([si])
        while dq:
            v = dq.popleft()
            for a in self._adj[v]:
                u = self._arc_to[a]
                if cap[a] > _EPS and not seen[u]:
                    seen[u] = True
                    dq.append(u)
        side = frozenset(self._vertices[i] for i in range(n) if seen[i])
        value = float(excess[ti])
        return FlowResult(value=value, source_side=side)


def min_st_cut_push_relabel(graph: Graph, s: Vertex, t: Vertex) -> FlowResult:
    """One-shot s-t min cut with the push–relabel engine."""
    return PushRelabelSolver(graph).max_flow(s, t)
