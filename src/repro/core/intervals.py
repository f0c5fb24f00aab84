"""Edge time intervals (Section 4.3, Lemmas 12–13).

Fix a level ``i`` and its :class:`~repro.core.ldr.LevelStructure`.  For
every graph edge ``e = (x, y, w)`` (tree **and** non-tree — the paper
stresses "all edges of the graph G") and every leader ``r`` whose bag
``e`` can cross while ``r`` leads, the times ``t`` with ``e`` crossing
``bag(r, t)`` form one integer interval (Lemma 12, by monotonicity of
bags).  The case analysis of Lemma 13, with ``join_time`` the path
*maximum* — an erratum: the paper writes "minimum", but under
Definition 6 a vertex joins a bag only once the whole connecting tree
path is contracted, i.e. at the path's largest key:

* both endpoints leaderless at this level — no contribution;
* exactly one endpoint ``x`` in a leadered component — ``x`` joins at
  ``join_time(x)``; the other endpoint cannot arrive while ``r``
  leads, so the interval is ``[join_time(x), ldr_time(r)]``;
* endpoints under *different* leaders — the previous case applies on
  both sides independently;
* endpoints under the *same* leader — the edge crosses between the
  first and second joins: ``[min(t_x, t_y), max(t_x, t_y) - 1]``,
  clipped to ``[0, ldr_time(r)]``.  The ``- 1`` is a second erratum:
  the paper's closed interval would end at ``max(t_x, t_y)``, but at
  that time both endpoints are inside the bag and the edge no longer
  crosses it.

Every produced interval carries the edge's weight — for weighted Min
Cut, ``Delta bag`` is the *weight* of the boundary, so the sweep sums
weights rather than counting intervals.

Layout: the three cases are boolean masks over ``(level, endpoint,
edge)`` cells — the graph's edge columns gathered through each level's
leader-slot and join-time arrays — evaluated for all edges and, in
memory-bounded chunks, all levels at once.  The result is one
:class:`IntervalColumns` row per non-empty interval: its (level,
leader) *segment*, the closed ``[start, end]``, the edge weight and
the edge's row id.  No Python code runs per edge.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..graph import Graph
from .ldr import LevelStructure


#: Levels are masked together in chunks of at most this many
#: (level, endpoint, edge) cells, which bounds the masks' memory on
#: large graphs while small graphs take all levels in one pass.
CHUNK_CELLS = 1 << 18


class IntervalColumns(NamedTuple):
    """Closed integer intervals ``[start, end]``, one row each.

    ``segment`` groups rows for the sweep (a (level, leader) pair);
    ``edge`` is the producing edge's row, the sweep's tie-break.
    """

    segment: np.ndarray
    start: np.ndarray
    end: np.ndarray
    weight: np.ndarray
    edge: np.ndarray


def edge_intervals(
    graph: Graph, levels: Sequence[LevelStructure]
) -> IntervalColumns:
    """All non-empty time intervals of ``levels``, one segment per
    (level, leader): segment ids number each level's leader slots
    after those of the levels before it in ``levels``.

    Every level must be indexed in ``graph``'s vertex order.
    """
    us, vs, ws = graph._columns()
    m = ws.size
    ends = np.stack([us, vs])
    per_chunk = max(1, CHUNK_CELLS // max(1, 2 * m))
    parts = []
    base = 0
    for c in range(0, len(levels), per_chunk):
        chunk = levels[c : c + per_chunk]
        sizes = np.array([lv.leaders.size for lv in chunk], dtype=np.int64)
        offset = np.cumsum(sizes) - sizes
        slot = np.stack([lv.leader_slot for lv in chunk])
        slot = np.where(slot >= 0, slot + offset[:, None], -1)[:, ends]
        join = np.stack([lv.join_times for lv in chunk])[:, ends]
        ldr_times = np.concatenate([lv.ldr_times for lv in chunk])
        iv = _lemma13(slot, join, ldr_times, ws)
        parts.append(iv._replace(segment=iv.segment + base))
        base += int(sizes.sum())
    return IntervalColumns(*(np.concatenate(col) for col in zip(*parts)))


def _lemma13(slot, join, ldr_times, ws) -> IntervalColumns:
    """Lemma 13's cases as masks over ``(level, endpoint, edge)`` cells."""
    # A leaderless endpoint reads segment 0's ldr_time; its cell is
    # masked out below.
    ldr = ldr_times[np.maximum(slot, 0)] if ldr_times.size else join
    first, second = slot[:, 0], slot[:, 1]
    same = ((first >= 0) & (first == second))[:, None]
    # Cases 2 and 3a: each leadered endpoint contributes independently,
    # [join_time(x), ldr_time(r)].  Case 3b, both endpoints under the
    # same leader: one interval [min(t_x, t_y), max(t_x, t_y) - 1],
    # clipped to ldr_time(r), in the first endpoint's cell.
    start = np.where(same, join.min(axis=1, keepdims=True), join)
    end = np.where(
        same, np.minimum(join.max(axis=1, keepdims=True) - 1, ldr), ldr
    )
    keep = (slot >= 0) & (start <= end)
    keep[:, 1] &= ~same[:, 0]
    cell = np.flatnonzero(keep)
    edge = cell % ws.size
    return IntervalColumns(
        segment=slot.take(cell),
        start=start.take(cell),
        end=end.take(cell),
        weight=ws[edge],
        edge=edge,
    )
