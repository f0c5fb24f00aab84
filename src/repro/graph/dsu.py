"""Union–find (disjoint set union) with path halving and union by size.

Used by the contraction-process replay (the differential oracle for
Algorithm 3), Kruskal consolidation, and quotient-graph construction.
:func:`contract_in_order` is the ordered edge-contraction loop the
certified-edge rules share.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable

import numpy as np

if TYPE_CHECKING:
    from .graph import Graph


class DSU:
    """Disjoint sets over an arbitrary hashable universe."""

    def __init__(self, elements: Iterable[Hashable] = ()):
        self._parent: dict[Hashable, Hashable] = {}
        self._size: dict[Hashable, int] = {}
        self._count = 0
        for x in elements:
            self.add(x)

    # ------------------------------------------------------------------
    def add(self, x: Hashable) -> None:
        """Register ``x`` as a singleton set (idempotent)."""
        if x not in self._parent:
            self._parent[x] = x
            self._size[x] = 1
            self._count += 1

    def find(self, x: Hashable) -> Hashable:
        """Representative of ``x``'s set (path halving)."""
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self._count -= 1
        return True

    def connected(self, a: Hashable, b: Hashable) -> bool:
        return self.find(a) == self.find(b)

    def set_size(self, x: Hashable) -> int:
        """Size of the set containing ``x``."""
        return self._size[self.find(x)]

    # ------------------------------------------------------------------
    @property
    def num_sets(self) -> int:
        return self._count

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, x: Hashable) -> bool:
        return x in self._parent

    def groups(self) -> dict[Hashable, list[Hashable]]:
        """Map representative -> members (members in insertion order)."""
        out: dict[Hashable, list[Hashable]] = {}
        for x in self._parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def contract_in_order(
    graph: "Graph", us: np.ndarray, vs: np.ndarray, *, floor: int = 1
) -> tuple["Graph", dict[Hashable, list[Hashable]], int] | None:
    """Contract the edges ``(us[i], vs[i])`` of ``graph`` in order.

    ``us``/``vs`` are vertex indices.  A path-halving union-find merges
    each edge's two sets, hanging the ``u`` root under the ``v`` root,
    so the edge order alone fixes which vertex names each block.
    Contraction stops once only ``floor`` vertices remain (the default
    never stops early).  Returns :meth:`Graph.quotient`'s ``(quotient,
    blocks)`` plus the number of vertices removed, or ``None`` when no
    edge merged two sets.
    """
    n = graph.num_vertices
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    remaining = n
    for iu, iv in zip(us.tolist(), vs.tolist()):
        if remaining <= floor:
            break
        ru, rv = find(iu), find(iv)
        if ru != rv:
            parent[ru] = rv
            remaining -= 1
    if remaining == n:
        return None
    vertices = graph.vertices()
    rep = {v: vertices[find(i)] for i, v in enumerate(vertices)}
    quotient, blocks = graph.quotient(rep)
    return quotient, blocks, n - remaining
