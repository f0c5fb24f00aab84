"""Heavy-path RMQ for tree path queries (paper Theorem 4).

Theorem 4 (Behnezhad et al. [5]): the heavy-light decomposition plus an
RMQ structure over its heavy paths can be built in ``O(1/eps)`` AMPC
rounds; afterwards, a min/max over any tree path costs ``O(log n)``
queries to global memory — one sparse-table lookup per heavy path the
query path crosses (Observation 1 bounds those by ``O(log n)``).

Section 4 uses this twice: Lemma 11 needs path *maxima* to compute
``ldr_time``, and Lemma 13 needs the same for the ``mw(x)`` values.
Maxima, not the "minimum" the paper's Lemma 13 writes, are an erratum:
under Definition 6 a vertex joins a bag only when the **largest** key
on the connecting path has been contracted, so a join time is a path
maximum.

Implemented as numpy sparse tables per heavy path.  ``query_count``
tracks segment lookups so tests can assert the ``O(log n)`` bound.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np

from .heavy_light import HeavyLight, heavy_light_decomposition
from .rooted import RootedTree

Vertex = Hashable


class _SparseTable:
    """Idempotent range queries (max or min) in O(1) after O(L log L) build."""

    def __init__(self, values: np.ndarray, op: Callable):
        self._op = op
        L = len(values)
        self._levels = [np.asarray(values, dtype=np.float64)]
        k = 1
        while (1 << k) <= L:
            prev = self._levels[-1]
            half = 1 << (k - 1)
            self._levels.append(op(prev[: L - (1 << k) + 1], prev[half : L - half + 1]))
            k += 1

    def query(self, lo: int, hi: int) -> float:
        """Range op over ``values[lo:hi]`` (half-open, non-empty)."""
        if lo >= hi:
            raise ValueError("empty range")
        span = hi - lo
        k = span.bit_length() - 1
        lvl = self._levels[k]
        return float(self._op(lvl[lo], lvl[hi - (1 << k)]))


class TreePathAggregator:
    """Max (default) or min of edge weights along arbitrary tree paths.

    Parameters
    ----------
    tree:
        A rooted tree.
    edge_weight:
        ``(child, parent) -> weight`` for every tree edge.
    mode:
        ``"max"`` or ``"min"``.
    hl:
        Optional precomputed heavy-light decomposition.
    """

    def __init__(
        self,
        tree: RootedTree,
        edge_weight: dict[tuple[Vertex, Vertex], float],
        *,
        mode: str = "max",
        hl: HeavyLight | None = None,
    ):
        if mode not in ("max", "min"):
            raise ValueError("mode must be 'max' or 'min'")
        self.tree = tree
        self.mode = mode
        self.hl = hl if hl is not None else heavy_light_decomposition(tree)
        self._combine = max if mode == "max" else min
        np_op = np.maximum if mode == "max" else np.minimum
        self._weight = edge_weight
        self.query_count = 0  # segment lookups, for the O(log n) tests

        self._tables: list[_SparseTable | None] = []
        for path in self.hl.paths:
            if len(path) < 2:
                self._tables.append(None)
                continue
            vals = np.array(
                [edge_weight[(path[i + 1], path[i])] for i in range(len(path) - 1)],
                dtype=np.float64,
            )
            self._tables.append(_SparseTable(vals, np_op))

    # ------------------------------------------------------------------
    def path_aggregate(self, u: Vertex, v: Vertex) -> float:
        """Aggregate edge weight on the tree path from ``u`` to ``v``.

        Raises ``ValueError`` when ``u == v`` (empty path).
        """
        if u == v:
            raise ValueError("path from a vertex to itself has no edges")
        hl, tree = self.hl, self.tree
        best: float | None = None

        def fold(x: float | None, y: float) -> float:
            return y if x is None else self._combine(x, y)

        while hl.path_of[u] != hl.path_of[v]:
            # Lift the endpoint whose path head is deeper.
            hu, hv = hl.path_head(u), hl.path_head(v)
            if tree.depth[hu] < tree.depth[hv]:
                u, v = v, u
                hu, hv = hv, hu
            m = hl.path_of[u]
            pos = hl.position[u]
            if pos > 0:
                best = fold(best, self._tables[m].query(0, pos))
                self.query_count += 1
            # the light edge from the path head to its parent
            p = tree.parent[hu]
            best = fold(best, self._weight[(hu, p)])
            self.query_count += 1
            u = p
        if u != v:
            m = hl.path_of[u]
            a, b = hl.position[u], hl.position[v]
            if a > b:
                a, b = b, a
            best = fold(best, self._tables[m].query(a, b))
            self.query_count += 1
        assert best is not None
        return best

    def path_max_naive(self, u: Vertex, v: Vertex) -> float:
        """Reference O(depth) walk for differential tests."""
        if u == v:
            raise ValueError("path from a vertex to itself has no edges")
        tree = self.tree
        best: float | None = None
        du, dv = tree.depth[u], tree.depth[v]
        while du > dv:
            p = tree.parent[u]
            w = self._weight[(u, p)]
            best = w if best is None else self._combine(best, w)
            u, du = p, du - 1
        while dv > du:
            p = tree.parent[v]
            w = self._weight[(v, p)]
            best = w if best is None else self._combine(best, w)
            v, dv = p, dv - 1
        while u != v:
            pu, pv = tree.parent[u], tree.parent[v]
            for child, par in ((u, pu), (v, pv)):
                w = self._weight[(child, par)]
                best = w if best is None else self._combine(best, w)
            u, v = pu, pv
        assert best is not None
        return best
