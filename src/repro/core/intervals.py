"""Edge time intervals (Section 4.3, Lemmas 12–13).

Fix a level ``i`` and its row of a :class:`~repro.core.ldr.LevelTable`.
For every graph edge ``e = (x, y, w)`` (tree **and** non-tree — the paper
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

Layout: the three cases are boolean masks over ``(pair, endpoint)``
cells, one pair per (copy, level) row and edge of that copy — the
copies' edge columns gathered through the rows of each copy's level
table — evaluated, among each chunk's cells, only where the endpoint
has a leader, for all edges of all copies and, in memory-bounded
chunks, all levels at once.  The result is one :class:`IntervalColumns`
row per non-empty interval: its (copy, level, leader) *segment*, the
closed ``[start, end]``, the edge weight and the edge's row id.  No
Python code runs per edge.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..graph import Graph
from .ldr import LevelTable, _ranges


#: (copy, level) rows are masked together in chunks of at most this
#: many cells, two per (row, edge) pair (or one row, if larger).  Small
#: chunks keep each mask under 64 KiB, which ran about 30% faster than
#: one pass over every row on both clustered n=64 and planted n=2048
#: trials (the allocator reuses small blocks; a large array is fresh
#: pages every time).
CHUNK_CELLS = 1 << 13

_NONE = np.empty(0, dtype=np.int64)


class IntervalColumns(NamedTuple):
    """Closed integer intervals ``[start, end]``, one row each.

    ``segment`` groups rows for the sweep (a (copy, level, leader)
    triple); ``edge`` is the producing edge's row, offset by the edge
    counts of the copies before it: the sweep's tie-break.
    """

    segment: np.ndarray
    start: np.ndarray
    end: np.ndarray
    weight: np.ndarray
    edge: np.ndarray


def edge_intervals(
    copies: Sequence[tuple[Graph, LevelTable]]
) -> IntervalColumns:
    """All non-empty time intervals of every copy's levels, one segment
    per (copy, level, leader).

    Segment ids number each copy's segments after those of the copies
    before it; edge ids number each copy's edge rows likewise.  Each
    copy's table must be indexed in its graph's vertex order.  Rows
    come in (copy, level, edge, endpoint) order.
    """
    tables = [table for _, table in copies]
    sizes = np.array([table.leader.size for table in tables], dtype=np.int64)
    if not sizes.any():
        return IntervalColumns(_NONE, _NONE, _NONE, np.empty(0), _NONE)
    segment_base = np.cumsum(sizes) - sizes
    ldr_time = np.concatenate([table.ldr_time for table in tables])
    columns = [graph._columns() for graph, _ in copies]
    m = np.array([ws.size for _, _, ws in columns], dtype=np.int64)
    us = np.concatenate([us for us, _, _ in columns])
    vs = np.concatenate([vs for _, vs, _ in columns])
    weight = np.concatenate([ws for _, _, ws in columns])
    edge_base = np.cumsum(m) - m
    # Every table row, flattened, its slots numbered as batch segments.
    slot = np.concatenate([table.slot.ravel() for table in tables])
    slot = np.where(
        slot >= 0, slot + np.repeat(segment_base, [t.slot.size for t in tables]), -1
    )
    join = np.concatenate([table.join.ravel() for table in tables])
    height, n = np.array([table.slot.shape for table in tables], dtype=np.int64).T
    row_copy = np.repeat(np.arange(len(tables)), height)
    row_start = np.cumsum(n[row_copy]) - n[row_copy]
    parts = []
    for r0, r1 in _chunks((2 * m[row_copy]).tolist()):
        copy = row_copy[r0:r1]
        # One (row, edge) pair per line; its endpoints index the row's
        # cells.
        edge = _ranges(edge_base[copy], m[copy])
        ends = np.empty((edge.size, 2), dtype=np.int64)
        ends[:, 0] = us[edge]
        ends[:, 1] = vs[edge]
        ends += np.repeat(row_start[r0:r1], m[copy])[:, None]
        parts.append(_lemma13(slot[ends], join[ends], ldr_time, edge, weight))
    return IntervalColumns(*(np.concatenate(col) for col in zip(*parts)))


def _chunks(cells: list[int]):
    """Consecutive ``(first, stop)`` row ranges of at most
    :data:`CHUNK_CELLS` cells each (a larger row goes alone)."""
    first, total = 0, 0
    for r, c in enumerate(cells):
        if total and total + c > CHUNK_CELLS:
            yield first, r
            first, total = r, 0
        total += c
    if cells:
        yield first, len(cells)


def _lemma13(slot, join, ldr_times, edge, ws) -> IntervalColumns:
    """Lemma 13's cases over ``(pair, endpoint)`` cells: ``slot`` and
    ``join`` hold, per (row, edge) pair, each endpoint's leader segment
    (``-1`` if leaderless) and join time.  Only leadered cells can
    contribute, so the cases are masks over those alone."""
    slot, join = slot.ravel(), join.ravel()
    cell = np.flatnonzero(slot >= 0)
    segment, t = slot[cell], join[cell]
    # The pair's other endpoint is the cell's neighbour.
    other = cell ^ 1
    t_other = join[other]
    same = slot[other] == segment
    ldr = ldr_times[segment]
    # Cases 2 and 3a: each leadered endpoint contributes independently,
    # [join_time(x), ldr_time(r)].  Case 3b, both endpoints under the
    # same leader: one interval [min(t_x, t_y), max(t_x, t_y) - 1],
    # clipped to ldr_time(r), in the first endpoint's cell.
    start = np.where(same, np.minimum(t, t_other), t)
    end = np.where(same, np.minimum(np.maximum(t, t_other) - 1, ldr), ldr)
    keep = start <= end
    keep &= ~same | (cell & 1 == 0)
    e = edge.take(cell[keep] >> 1)
    return IntervalColumns(
        segment=segment[keep],
        start=start[keep],
        end=end[keep],
        weight=ws.take(e),
        edge=e,
    )
