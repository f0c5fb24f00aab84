"""Bag leaders and ``ldr_time`` (Section 4.2, Definition 7, Lemmas 8–11).

For a level ``i`` of the low-depth decomposition, the components of
``T_i`` (tree minus vertices of label ``< i``) each contain at most one
vertex of label ``i`` — its **leader**.  For every vertex ``x`` in a
leadered component we need:

* ``join_time(x)`` — the first ``t`` with ``x ∈ bag(r, t)``; equals the
  *maximum* key on the tree path from the leader ``r`` to ``x``.  This
  is an erratum to the paper, whose Lemma 13 says "minimum": under
  Definition 6 a vertex joins a bag only once the whole connecting
  path is contracted, i.e. at the path's largest key;
* ``ldr_time(r)`` — the last ``t`` at which ``r`` still leads its bag:
  one less than the first time the bag absorbs a lower-label vertex,
  i.e. ``min`` over the (≤ 2, Lemma 10) boundary tree edges ``(x, y)``
  of ``max(join_time(x), key(x, y))``, minus one.  A leader with no
  boundary (the global minimum label) keeps leading until the bag
  becomes all of ``V``; its ``ldr_time`` is capped at
  ``max_mst_key - 1`` so only proper subsets are scored.

The intervals built from these times (Lemma 13) carry a second
erratum: an edge whose endpoints share a leader stops crossing the bag
once both have joined, so its closed interval ends at
``max(t_x, t_y) - 1``, not at ``max(t_x, t_y)``.

Layout: step 2 decomposes the keyed MST in the keys' vertex order,
which is the graph's, so edge columns index the level arrays directly.
:func:`keyed_tree` adds each vertex's parent-edge key to that
decomposition's rooting, in one pass over the MST rows, and
:func:`build_level_structure` walks the rooting's adjacency and
returns one :class:`LevelTable` per copy: a row per level of each
vertex's leader segment (``-1`` when leaderless) and join time, and
per segment the leader's vertex index and ``ldr_time``.  Segments
number the copy's leaders level by level, each level's in the
decomposition's ``order``.  :meth:`LevelTable.level` is the
vertex-keyed view for tests.

Everything is computed with one DFS per component (``O(n)`` per level;
the model-cost accounting lives in :mod:`repro.core.singleton`).
"""

from __future__ import annotations

from typing import Hashable, NamedTuple

import numpy as np

from ..trees.low_depth import LowDepthDecomposition
from .keys import ContractionKeys

Vertex = Hashable


class KeyedTree(NamedTuple):
    """Step 2's decomposition of the keyed MST, with the tree's keys."""

    decomp: LowDepthDecomposition
    #: index -> key of the tree edge to its parent (0 at the root)
    parent_key: list[int]
    #: level -> indices of its label vertices, in decomposition order
    leaders: dict[int, list[int]]
    #: largest tree-edge key (caps the unbounded leader's ldr_time)
    max_tree_key: int


def keyed_tree(decomp: LowDepthDecomposition, keys: ContractionKeys) -> KeyedTree:
    """Key ``decomp``'s tree, the keyed MST that ``decomp`` decomposes
    over the keys' vertex order: each edge of :attr:`ContractionKeys.mst`
    keys its child end.  Each level's leaders are its label vertices in
    ``decomp``'s ``order``."""
    parent = decomp.rooting.parent
    parent_key = [0] * len(parent)
    mst = keys.mst
    for k, a, b in zip(mst.key, mst.u, mst.v):
        parent_key[a if parent[a] == b else b] = k
    label = decomp.labels
    leaders: dict[int, list[int]] = {}
    for i in decomp.order:
        leaders.setdefault(label[i], []).append(i)
    return KeyedTree(decomp, parent_key, leaders, mst.key[-1] if mst.key else 0)


class LevelTable(NamedTuple):
    """Leaders, join times and ldr_times for every level of one copy:
    level ``i`` is row ``i - 1``, and segments number the copy's
    leaders level by level."""

    #: index -> vertex (the decomposition's order)
    vertices: list[Vertex]
    #: (row, vertex index) -> its leader's segment, or -1 if leaderless
    slot: np.ndarray
    #: (row, vertex index) -> join time (0 for leaders and leaderless)
    join: np.ndarray
    #: segment -> leader's vertex index
    leader: np.ndarray
    #: segment -> last time the leader still leads
    ldr_time: np.ndarray
    #: row r's segments are ``first[r]:first[r + 1]``
    first: np.ndarray

    def level(self, i: int) -> tuple[dict, dict, dict]:
        """Level ``i`` by vertex, for tests: ``(leader_of, join_time,
        ldr_time)`` over its leadered vertices and, in segment order,
        its leaders."""
        V, leader = self.vertices, self.leader.tolist()
        rows = zip(V, self.slot[i - 1].tolist(), self.join[i - 1].tolist())
        under = [(v, s, t) for v, s, t in rows if s >= 0]
        lo, hi = self.first[i - 1], self.first[i]
        return (
            {v: V[leader[s]] for v, s, _ in under},
            {v: t for v, _, t in under},
            dict(zip([V[r] for r in leader[lo:hi]], self.ldr_time[lo:hi].tolist())),
        )


def build_level_structure(tree: KeyedTree) -> LevelTable:
    """Compute the Lemma-11 quantities for every level of ``tree``."""
    decomp = tree.decomp
    label = decomp.labels
    adjacency, parent = decomp.rooting.adjacency, decomp.rooting.parent
    parent_key = tree.parent_key
    slots, joins, leader, ldr, first = [], [], [], [], [0]
    for level in range(1, decomp.height + 1):
        slot = [-1] * len(label)
        join = [0] * len(label)
        # Components of T_level, discovered by DFS from each
        # level-`level` vertex through vertices of label >= level.
        for r in tree.leaders.get(level, []):
            s = len(leader)
            leader.append(r)
            slot[r] = s
            stack = [r]
            first_crossing: int | None = None
            while stack:
                v = stack.pop()
                t_v = join[v]
                # A tree edge's key is its child end's parent_key.
                for u in adjacency[v]:
                    if label[u] >= level:
                        # Trees have unique paths, so each vertex is
                        # discovered once; the slot test also skips
                        # the DFS parent.
                        if slot[u] < 0:
                            k = parent_key[u] if parent[u] == v else parent_key[v]
                            slot[u] = s
                            join[u] = t_v if t_v > k else k
                            stack.append(u)
                        continue
                    # Boundary edge (Lemma 10: at most two per component).
                    k = parent_key[u] if parent[u] == v else parent_key[v]
                    t_u = t_v if t_v > k else k
                    if first_crossing is None or t_u < first_crossing:
                        first_crossing = t_u
            ldr.append(
                tree.max_tree_key - 1 if first_crossing is None else first_crossing - 1
            )
        slots.append(slot)
        joins.append(join)
        first.append(len(leader))
    return LevelTable(
        vertices=decomp.vertices,
        slot=np.array(slots, dtype=np.int64),
        join=np.array(joins, dtype=np.int64),
        leader=np.array(leader, dtype=np.int64),
        ldr_time=np.array(ldr, dtype=np.int64),
        first=np.array(first, dtype=np.int64),
    )
