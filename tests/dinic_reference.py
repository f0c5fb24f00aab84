"""Frozen recursive Dinic (the reference).

This is ``repro.flow.dinic.DinicSolver`` as it was before its blocking
flow became an explicit path-stack loop: a recursive DFS over
head/next linked arc lists, a full BFS per phase, a separate residual
reachability pass for the source side, and a per-call raise and
restore of ``sys.setrecursionlimit``.  It is kept verbatim as the
differential reference for the iterative solver
(``tests/test_dinic_reference.py``) and as the "old" side of
``benchmarks/bench_flow.py``.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable

from repro.graph import Graph

Vertex = Hashable
_EPS = 1e-12


@dataclass
class FlowResult:
    """Max-flow value plus the min-cut side containing the source."""

    value: float
    source_side: frozenset


class DinicSolver:
    """Reusable solver over a fixed graph (rebuilds residuals per query)."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._vertices = graph.vertices()
        self._vid = {v: i for i, v in enumerate(self._vertices)}
        # CSR-ish arc storage: to[], cap[], head/next adjacency.
        self._arc_to: list[int] = []
        self._arc_cap_template: list[float] = []
        self._head: list[int] = [-1] * len(self._vertices)
        self._next: list[int] = []
        for u, v, w in graph.edges():
            self._add_pair(self._vid[u], self._vid[v], w)

    def _add_pair(self, iu: int, iv: int, cap: float) -> None:
        for a, b in ((iu, iv), (iv, iu)):
            self._arc_to.append(b)
            self._arc_cap_template.append(cap)  # undirected: both full
            self._next.append(self._head[a])
            self._head[a] = len(self._arc_to) - 1

    # ------------------------------------------------------------------
    def max_flow(self, s: Vertex, t: Vertex) -> FlowResult:
        """Maximum s-t flow and the source side of a minimum s-t cut."""
        if s == t:
            raise ValueError("source equals sink")
        n = len(self._vertices)
        si, ti = self._vid[s], self._vid[t]
        cap = list(self._arc_cap_template)
        total = 0.0
        level = [0] * n
        it = [0] * n

        def bfs() -> bool:
            for i in range(n):
                level[i] = -1
            level[si] = 0
            dq = deque([si])
            while dq:
                v = dq.popleft()
                a = self._head[v]
                while a != -1:
                    if cap[a] > _EPS and level[self._arc_to[a]] < 0:
                        level[self._arc_to[a]] = level[v] + 1
                        dq.append(self._arc_to[a])
                    a = self._next[a]
            return level[ti] >= 0

        def dfs(v: int, pushed: float) -> float:
            if v == ti:
                return pushed
            while it[v] != -1:
                a = it[v]
                u = self._arc_to[a]
                if cap[a] > _EPS and level[u] == level[v] + 1:
                    got = dfs(u, min(pushed, cap[a]))
                    if got > _EPS:
                        cap[a] -= got
                        cap[a ^ 1] += got
                        return got
                it[v] = self._next[a]
            return 0.0

        import sys

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 4 * n + 100))
        try:
            while bfs():
                for i in range(n):
                    it[i] = self._head[i]
                while True:
                    pushed = dfs(si, float("inf"))
                    if pushed <= _EPS:
                        break
                    total += pushed
        finally:
            sys.setrecursionlimit(old_limit)

        # Source side of the min cut: vertices reachable in the residual.
        seen = [False] * n
        seen[si] = True
        dq = deque([si])
        while dq:
            v = dq.popleft()
            a = self._head[v]
            while a != -1:
                u = self._arc_to[a]
                if cap[a] > _EPS and not seen[u]:
                    seen[u] = True
                    dq.append(u)
                a = self._next[a]
        side = frozenset(
            self._vertices[i] for i in range(n) if seen[i]
        )
        return FlowResult(value=total, source_side=side)


def min_st_cut(graph: Graph, s: Vertex, t: Vertex) -> FlowResult:
    """One-shot s-t min cut."""
    return DinicSolver(graph).max_flow(s, t)
