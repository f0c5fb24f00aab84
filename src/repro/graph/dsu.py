"""Union–find (disjoint set union) with path halving.

:class:`DSU` unions by size over hashable labels (the low-depth
decomposition check); :class:`IndexDSU` makes the same
decisions over dense vertex indices and is the one union–find every
spanning forest uses (the keyed MST, the AMPC spanning forest,
``/gomoryhu``'s canonical tree).  :func:`contract_in_order`, the
ordered edge contraction the kernels share, keeps its own linking
rule, since that rule names the kernels' blocks.
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


class IndexDSU:
    """Disjoint sets over the dense indices ``0 .. n-1`` (flat lists).

    Makes :class:`DSU`'s decisions — union by size, the first
    argument's root surviving ties, path halving — without hashing.
    :meth:`union` returns the root it absorbed, which now hangs under
    the surviving root, so a caller can record each merge:

    >>> dsu = IndexDSU(4)
    >>> dsu.union(0, 1), dsu.union(2, 1), dsu.union(0, 2)
    (1, 2, -1)
    >>> dsu.parent[2], dsu.find(1)
    (0, 0)
    """

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; return the root that
        joined the other (now ``parent[root]``), or -1 if they were
        one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return -1
        size = self.size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        size[ra] += size[rb]
        return rb


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
    edge merged two sets.  Swapping each edge's endpoints renames the
    blocks:

    >>> from repro.graph import Graph
    >>> g = Graph(edges=[("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)])
    >>> first, second = np.array([0, 1]), np.array([1, 2])
    >>> _, blocks, removed = contract_in_order(g, first, second)
    >>> blocks, removed
    ({'c': ['a', 'b', 'c'], 'd': ['d']}, 2)
    >>> contract_in_order(g, second, first)[1]
    {'a': ['a', 'b', 'c'], 'd': ['d']}
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
