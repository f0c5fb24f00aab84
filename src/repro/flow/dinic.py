"""Dinic's max-flow / s-t min-cut (from scratch).

Substrate for Gomory–Hu trees (Definition 8), which Theorem 2's proof
leans on and which E5 uses both as the Saran–Vazirani comparator and as
a k-cut quality reference.  Works on the same undirected weighted
:class:`~repro.graph.Graph`; every undirected edge becomes a pair of
directed residual arcs of the full capacity each (the standard
undirected reduction).

The loop
--------
Each phase labels vertices by BFS distance over residual arcs, then
saturates the level graph with one blocking flow.  The blocking flow
walks an explicit path stack, never recursion:

* from the path's tip ``v``, scan ``v``'s arcs from ``it[v]`` for the
  first residual arc into level ``level[v] + 1``; descend along it and
  leave ``it[v]`` on it;
* a tip with no such arc is a dead end: pop it and advance its
  parent's ``it`` past the arc that led there;
* at ``t``, push the path's bottleneck along every arc, then retreat to
  the tail of the first arc left with residual ``<= _EPS``.

Equivalence with the recursive DFS
----------------------------------
The textbook recursive blocking flow restarts from ``s`` after every
push.  Its ``it`` pointers stay on the arcs of the path just pushed, so
the restart re-walks that path until the first arc the push drained,
and resumes scanning at that arc's tail — exactly where the loop above
retreats to.  The ``it`` pointers move the same way (kept on a
successful push, advanced past a dead end), so the two perform the same
augmentations in the same order and every float operation (the
bottleneck ``min``, each ``cap[a] -= f``, ``cap[a ^ 1] += f``,
``total += f``) is the same, and so is each result bit for bit.  Four
more changes keep that push sequence:

* arcs live in per-vertex ``(arc, head)`` tuples in linked-list order
  (newest first), the order a head/next list would scan;
* the phase BFS stops at ``t``'s level: levels up to ``level[t]`` are
  unchanged, and the vertices it leaves unlabelled cannot reach ``t``
  in the level graph, so the DFS would only have visited them as dead
  ends;
* a dead end loses its label for the rest of the phase: its ``it`` is
  exhausted, so a recursive visit would return at once and its caller
  would advance past the arc, which is what skipping it does;
* the last BFS, the one that fails to reach ``t``, never stops early:
  it is the full residual reachability from ``s``, so the source side
  of the min cut is read from its labels.

``tests/dinic_reference.py`` keeps the recursive solver, and
``tests/test_dinic_reference.py`` checks value and side equality
against it.  The path stack's depth is bounded by ``n`` in a list, so
long paths need no recursion-limit change, and ``max_flow`` keeps all
its state in locals: concurrent calls, on one solver or many, share
nothing mutable.

Replay
------
Every result carries its *support*: every arc on any augmenting path.
Arcs ``2k`` and ``2k + 1`` run along edge row ``k``, the ``k``-th of
``graph.edges()``.  A row with neither arc in the support keeps both
at its full weight for the whole run, so the run reads it only through
``cap[a] > _EPS`` tests, never through a bottleneck ``min``.  Change such a row's weight without moving it
across ``_EPS`` (and change no vertex or row order) and every BFS test,
DFS test, bottleneck, ``cap`` update and the final reachability test
read the same values: the run repeats augmentation for augmentation
and returns the same value and source side, bit for bit, for any
floats.  :func:`repro.flow.gomory_hu.gomory_hu_tree` replays earlier
flows on that argument instead of running them again.

Differentially tested against ``networkx.maximum_flow``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from ..graph import Graph

Vertex = Hashable
_EPS = 1e-12


@dataclass
class FlowResult:
    """Max-flow value plus the min-cut side containing the source."""

    value: float
    source_side: frozenset
    #: arcs on any augmenting path, unordered; arc ``a`` runs along
    #: edge row ``a >> 1`` (Dinic only; see "Replay" above), None when
    #: the engine records none
    support: np.ndarray | None = field(
        default=None, compare=False, repr=False
    )


class DinicSolver:
    """Reusable solver over a fixed graph (rebuilds residuals per query)."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._vertices = graph.vertices()
        vid = {v: i for i, v in enumerate(self._vertices)}
        self._vid = vid
        # Arc 2k runs u -> v and arc 2k + 1 (= 2k ^ 1) runs v -> u for
        # the k-th edge; both start at the full weight.
        arcs: list[list[tuple[int, int]]] = [[] for _ in self._vertices]
        caps: list[float] = []
        for u, v, w in graph.edges():
            iu, iv = vid[u], vid[v]
            arcs[iu].append((len(caps), iv))
            arcs[iv].append((len(caps) + 1, iu))
            caps += (w, w)
        self._arcs = [tuple(reversed(row)) for row in arcs]
        self._cap_template = caps

    # ------------------------------------------------------------------
    def max_flow(self, s: Vertex, t: Vertex) -> FlowResult:
        """Maximum s-t flow and the source side of a minimum s-t cut."""
        if s == t:
            raise ValueError("source equals sink")
        n = len(self._vertices)
        si, ti = self._vid[s], self._vid[t]
        arcs = self._arcs
        cap = list(self._cap_template)
        total = 0.0
        used: set[int] = set()  # arcs on any augmenting path
        while True:
            # Phase BFS, stopped once the queue reaches t's level.
            level = [-1] * n
            level[si] = 0
            queue = [si]
            for v in queue:
                lv = level[v]
                if lv == level[ti]:
                    break
                for a, u in arcs[v]:
                    if level[u] < 0 and cap[a] > _EPS:
                        level[u] = lv + 1
                        queue.append(u)
            if level[ti] < 0:
                break
            # Blocking flow over the level graph.
            it = [0] * n
            path: list[int] = []  # arcs from s to the tip
            tips = [si]  # vertices from s to the tip
            v = si
            while True:
                if v == ti:
                    f = min([cap[a] for a in path])
                    for a in path:
                        cap[a] -= f
                        cap[a ^ 1] += f
                    total += f
                    used.update(path)
                    k = 0
                    while cap[path[k]] > _EPS:
                        k += 1
                    del path[k:]
                    del tips[k + 1:]
                    v = tips[k]
                    continue
                row = arcs[v]
                end = len(row)
                i = it[v]
                want = level[v] + 1
                while i < end:
                    a, u = row[i]
                    if level[u] == want and cap[a] > _EPS:
                        break
                    i += 1
                it[v] = i
                if i < end:
                    path.append(a)
                    tips.append(u)
                    v = u
                elif v == si:
                    break
                else:
                    level[v] = -1
                    path.pop()
                    tips.pop()
                    v = tips[-1]
                    it[v] += 1
        vertices = self._vertices
        side = frozenset(vertices[i] for i in range(n) if level[i] >= 0)
        support = np.fromiter(used, dtype=np.int32, count=len(used))
        return FlowResult(value=total, source_side=side, support=support)


def min_st_cut(graph: Graph, s: Vertex, t: Vertex) -> FlowResult:
    """One-shot s-t min cut."""
    return DinicSolver(graph).max_flow(s, t)
