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
returns, per level, index arrays in that order — each vertex's leader
slot (``-1`` when leaderless) and join time, and each leader's vertex
index and ``ldr_time`` in slot order, which is the decomposition's
``order``.
The vertex-keyed dicts ``leader_of``, ``join_time`` and ``ldr_time``
are derived views for tests and figures.

Everything is computed with one DFS per component (``O(n)`` per level;
the model-cost accounting lives in :mod:`repro.core.singleton`).
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class LevelStructure:
    """Leaders, join times and ldr_times for one decomposition level."""

    level: int
    #: index -> vertex (the decomposition's order)
    vertices: list[Vertex]
    #: vertex index -> slot of its leader, or -1 outside leadered comps
    leader_slot: np.ndarray
    #: vertex index -> first time it belongs to its leader's bag
    #: (0 for leaders and for leaderless vertices)
    join_times: np.ndarray
    #: slot -> leader's vertex index
    leaders: np.ndarray
    #: slot -> last time the leader still leads
    ldr_times: np.ndarray

    @property
    def leader_of(self) -> dict[Vertex, Vertex]:
        """vertex -> leader of its component (leadered components only)."""
        V = self.vertices
        return {
            V[x]: V[self.leaders[s]]
            for x, s in enumerate(self.leader_slot.tolist())
            if s >= 0
        }

    @property
    def join_time(self) -> dict[Vertex, int]:
        """vertex -> join time (leadered components only)."""
        V = self.vertices
        slots = self.leader_slot.tolist()
        return {
            V[x]: t
            for x, t in enumerate(self.join_times.tolist())
            if slots[x] >= 0
        }

    @property
    def ldr_time(self) -> dict[Vertex, int]:
        """leader -> ldr_time, in slot order."""
        V = self.vertices
        return {
            V[r]: t
            for r, t in zip(self.leaders.tolist(), self.ldr_times.tolist())
        }


def build_level_structure(tree: KeyedTree, level: int) -> LevelStructure:
    """Compute the Lemma-11 quantities for one level."""
    decomp = tree.decomp
    label = decomp.labels
    adjacency, parent = decomp.rooting.adjacency, decomp.rooting.parent
    parent_key = tree.parent_key
    leaders = tree.leaders.get(level, [])
    slot = [-1] * len(label)
    join = [0] * len(label)
    ldr: list[int] = []
    # Components of T_level, discovered by DFS from each level-`level`
    # vertex through vertices of label >= level.
    for s, r in enumerate(leaders):
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
                    # discovered once; the slot test also skips the
                    # DFS parent.
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
    return LevelStructure(
        level=level,
        vertices=decomp.vertices,
        leader_slot=np.array(slot, dtype=np.int64),
        join_times=np.array(join, dtype=np.int64),
        leaders=np.array(leaders, dtype=np.int64),
        ldr_times=np.array(ldr, dtype=np.int64),
    )
