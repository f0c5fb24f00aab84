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
:func:`build_level_structure` returns one :class:`LevelTable` per
copy: a row per level of each vertex's leader segment (``-1`` when
leaderless) and join time, and per segment the leader's vertex index
and ``ldr_time``.  Segments number the copy's leaders level by level,
each level's in the decomposition's ``order``.
:meth:`LevelTable.level` is the vertex-keyed view for tests.

Everything is computed on arrays over all of a batch's copies and
levels at once, by level-synchronous pointer jumping over the
rootings' parent arrays (``O(log depth)`` rounds of ``O(n h)`` work;
the model-cost accounting lives in :mod:`repro.core.singleton`).
"""

from __future__ import annotations

from itertools import chain
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


def build_level_structure(trees):
    """Compute the Lemma-11 quantities for every level of each keyed
    tree in ``trees``, one :class:`LevelTable` per tree; a single
    :class:`KeyedTree` is a batch of one and gets its table back.

    Level-synchronous pointer jumping over every tree at once: a cell
    is a (vertex, level) pair of ``T_level``, numbered vertex by vertex
    and, within a vertex, level by level.  Jumping up the rooting's
    parent pointers finds each cell's component top, and so its
    leader, the one cell of its component at its vertex's own label.
    Pointers toward the leader (up, except down the leader's own
    root path, found by preorder ranges) then jump with the path
    maximum of the keys, which is the join time.  ``ldr_time`` is the
    minimum over the component's boundary edges, to a vertex of lower
    label above or below, of ``max(join_time, key)``, minus one.
    """
    if isinstance(trees, KeyedTree):
        return build_level_structure([trees])[0]
    if not trees:
        return []
    decomps = [tree.decomp for tree in trees]
    sizes = np.array([len(d.labels) for d in decomps], dtype=np.int64)
    n = int(sizes.sum())
    base = np.cumsum(sizes) - sizes
    shift = np.repeat(base, sizes)

    def column(lists):
        return np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=n)

    label = column(d.labels for d in decomps)
    parent = column(d.rooting.parent for d in decomps)
    parent = np.where(parent >= 0, parent + shift, -1)
    key = column(t.parent_key for t in trees)
    size = column(d.rooting.size for d in decomps)
    tin = np.empty(n, dtype=np.int64)
    tin[column(d.rooting.preorder for d in decomps) + shift] = np.arange(n)

    # Cells: vertex x holds levels 1 .. label[x]; its last cell is the
    # one it leads (Lemma 8).  A root's parent, -1, reads the padding.
    cell0 = np.cumsum(label) - label
    vertex = np.repeat(np.arange(n), label)
    own = np.arange(vertex.size)
    level = own - cell0[vertex] + 1
    p = parent[vertex]
    up_ok = np.append(label, 0)[p] >= level
    up = np.where(up_ok, np.append(cell0, 0)[p] + level - 1, own)
    top = _jump(up)
    lead = cell0 + label - 1
    leader_at = np.full(vertex.size, -1, dtype=np.int64)
    leader_at[top[lead]] = lead
    leader = leader_at[top]
    led = leader >= 0
    r = vertex[np.maximum(leader, 0)]

    # Toward the leader: up the parent pointer, except on the leader's
    # root path (the cells above it are its ancestors), which points
    # down to its child on that path.
    moving = np.flatnonzero(led & up_ok)
    v, t = vertex[moving], tin[r[moving]]
    step, hop = own.copy(), np.zeros(own.size, dtype=np.int64)
    step[moving] = up[moving]
    hop[moving] = key[v]
    below = moving[(tin[v] <= t) & (t < tin[v] + size[v])]
    step[up[below]] = below
    hop[up[below]] = key[vertex[below]]
    step[lead] = lead
    hop[lead] = 0
    join = _jump(step, hop)

    # Boundary edges leave a leadered cell for a vertex of lower label:
    # its parent, or one of its children at each level in between.
    out = np.flatnonzero(led & ~up_ok & (p >= 0))
    child = np.flatnonzero((parent >= 0) & (label[np.maximum(parent, 0)] > label))
    gap = label[parent[child]] - label[child]
    inner = np.repeat(cell0[parent[child]], gap) + _ranges(label[child], gap)
    child = np.repeat(child, gap)
    inner_led = led[inner]
    child, inner = child[inner_led], inner[inner_led]
    crossing = np.full(n, _NEVER, dtype=np.int64)
    np.minimum.at(crossing, r[out], np.maximum(join[out], key[vertex[out]]))
    np.minimum.at(crossing, r[inner], np.maximum(join[inner], key[child]))
    cap = np.repeat([tree.max_tree_key for tree in trees], sizes)
    ldr_time = np.where(crossing == _NEVER, cap, crossing) - 1

    # Segments: a tree's leaders level by level, each level's in the
    # decomposition's order.
    position = np.empty(n, dtype=np.int64)
    position[column(d.order for d in decomps) + shift] = np.arange(n)
    copy = np.repeat(np.arange(len(trees)), sizes)
    by_segment = np.lexsort((position, label, copy))
    segment = np.empty(n, dtype=np.int64)
    segment[by_segment] = np.arange(n)
    segment -= shift
    # Row r of a table starts at the segments of labels <= r.
    heights = np.array([d.height for d in decomps], dtype=np.int64)
    row_base = np.cumsum(heights + 1) - heights - 1
    first = np.searchsorted(
        (row_base[copy] + label)[by_segment],
        _ranges(row_base, heights + 1),
        side="right",
    ) - np.repeat(base, heights + 1)
    # Cell (x, level) of a table sits at row level - 1, column x.
    grid0 = np.cumsum(heights * sizes) - heights * sizes
    cells = np.flatnonzero(led)
    x = vertex[cells]
    where = (grid0 - base)[copy[x]] + x + (level[cells] - 1) * sizes[copy[x]]
    slots = np.full(int((heights * sizes).sum()), -1, dtype=np.int64)
    joins = np.zeros(slots.size, dtype=np.int64)
    slots[where] = segment[r[cells]]
    joins[where] = join[cells]
    leader = by_segment - shift[by_segment]
    ldr_time = ldr_time[by_segment]
    tables = []
    for d, lo, k, h, g0, f0 in zip(
        decomps, base.tolist(), sizes.tolist(), heights.tolist(),
        grid0.tolist(), row_base.tolist(),
    ):
        tables.append(LevelTable(
            vertices=d.vertices,
            slot=slots[g0:g0 + h * k].reshape(h, k),
            join=joins[g0:g0 + h * k].reshape(h, k),
            leader=leader[lo:lo + k],
            ldr_time=ldr_time[lo:lo + k],
            first=first[f0:f0 + h + 1],
        ))
    return tables


#: ``crossing`` before any boundary edge is seen
_NEVER = np.iinfo(np.int64).max


def _jump(pointer: np.ndarray, value: np.ndarray | None = None) -> np.ndarray:
    """Pointer jumping over ``pointer``, a forest whose roots point to
    themselves: each element's root or, given ``value`` (an element's
    value for its step to its pointer, 0 at the roots), the maximum
    value over the steps from each element to its root."""
    while True:
        nxt = pointer[pointer]
        if np.array_equal(nxt, pointer):
            return pointer if value is None else value
        if value is not None:
            value = np.maximum(value, value[pointer])
        pointer = nxt


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)
