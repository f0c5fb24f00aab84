"""Weighted interval-stabbing minimum (Observation 9, Lemma 14).

Given the time intervals of one leader, ``Delta bag(r, t)`` equals the
total weight of intervals containing ``t``; minimising over
``t ∈ [0, ldr_time(r)]`` is a sweep: ``+w`` at each start, ``-w`` just
after each end, sorted, prefix-summed, minimum taken — exactly the
reduction of Lemma 14, whose AMPC cost is Theorem 5's minimum prefix
sum.  Intervals are closed.  Two errata to the paper shape them: join
times are tree-path *maxima* (the paper's Lemma 13 says "minimum"; a
vertex joins a bag only once its whole path is contracted), and an
edge whose endpoints share a leader ends at ``max(t_x, t_y) - 1`` —
at ``max(t_x, t_y)`` both endpoints are inside the bag — so its
``-w`` lands at ``max(t_x, t_y)``.

Two implementations with identical outputs (differentially tested):

* :func:`min_interval_overlap` — host-speed numpy sweep over
  :class:`~repro.core.intervals.IntervalColumns`, used inside the
  Algorithm-3 pipeline.  One call sweeps every segment (every leader of
  every level) at once: one stable ``lexsort`` of the events by
  ``(segment, position, start-before-end)``, which leaves equal events
  in row order, one ``reduceat`` merging equal positions, then a prefix
  sum per segment.  Segments are
  bucketed by row width (a power of two, at least 32) and each bucket
  prefix-summed as a padded matrix along its rows, so every segment
  accumulates in exactly the order a one-segment sweep would — no
  global cumulative sum with offsets subtracted, which would round
  differently;
* :func:`min_interval_overlap_ampc` — genuinely executes the sort and
  the minimum-prefix-sum on the AMPC simulator (measured rounds) for
  one segment's ``(starts, ends, weights)`` columns, used by the
  primitive benchmarks (E10) and the simulator path of Algorithm 3.

Both treat uncovered gaps inside the domain as zero coverage; for
connected graphs a leader's coverage is never zero within its domain
(the bag always has an outgoing edge), but the semantics matter for
adversarial tests.
"""

from __future__ import annotations

import numpy as np

from ..ampc import AMPCConfig, RoundLedger
from ..ampc.primitives import ampc_min_prefix_sum, ampc_sort
from .intervals import IntervalColumns


def min_interval_overlap(
    intervals: IntervalColumns,
    domain_end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per segment ``s``: minimum total weight covering any
    ``t ∈ [0, domain_end[s]]``, and the smallest such ``t``.

    Returns ``(weights, times)``, one entry per segment.  A leading
    uncovered gap, and a segment without intervals, yield ``(0.0, 0)``.
    Each segment's rows must come in ``edge`` order, as
    :func:`~repro.core.intervals.edge_intervals` returns them: equal
    events are summed in row order.
    Events past a segment's domain are dropped, so intervals may overrun
    it; they must satisfy ``0 <= start <= end``.
    """
    domain_end = np.asarray(domain_end, dtype=np.int64)
    segment, start, end, weight, _ = intervals
    if (domain_end < 0).any():
        raise ValueError("domain_end must be >= 0")
    if (start < 0).any():
        raise ValueError("interval starts at a negative time")
    if (start > end).any():
        raise ValueError("empty interval")
    k = domain_end.size
    best_w = np.zeros(k, dtype=np.float64)
    best_t = np.zeros(k, dtype=np.int64)

    n_iv = segment.size
    seg = np.concatenate([segment, segment])
    pos = np.concatenate([start, end + 1])
    keep = pos <= domain_end[seg]
    seg, pos = seg[keep], pos[keep]
    if seg.size == 0:
        return best_w, best_t
    is_end = np.repeat(np.array([False, True]), n_iv)[keep]
    delta = np.concatenate([weight, -weight])[keep]
    # A stable sort: equal events keep row order, which within a
    # segment is edge order.  One packed key sorts faster than two,
    # when it fits in 63 bits.
    rank = pos * 2 + is_end
    span = 2 * int(domain_end.max()) + 2
    if k * span < 1 << 63:
        order = np.argsort(seg * span + rank, kind="stable")
    else:
        order = np.lexsort((rank, seg))
    seg, pos, delta = seg[order], pos[order], delta[order]

    # Merge equal (segment, position) events into one coverage change.
    head = np.empty(seg.size, dtype=bool)
    head[0] = True
    np.not_equal(seg[1:], seg[:-1], out=head[1:])
    head[1:] |= pos[1:] != pos[:-1]
    first = np.flatnonzero(head)
    change = np.add.reduceat(delta, first)
    gseg, gpos = seg[first], pos[first]

    # Prefix sums per segment, bucketed by row width: the least power
    # of two >= the segment's change count, so padding stays below 2x,
    # but at least 32, so small inputs take one or two buckets.
    # Ordering changes by (width, segment) makes each bucket a
    # contiguous run of rows; +inf padding keeps the tail out of the
    # minimum without touching the prefix.
    counts = np.bincount(gseg, minlength=k)
    present = np.flatnonzero(counts)
    exponent = np.frexp(np.maximum(counts[present] - 1, 31))[1]
    width = np.left_shift(1, exponent.astype(np.int64))
    rows = present[np.argsort(width, kind="stable")]
    width = np.sort(width)
    row_of = np.empty(k, dtype=np.int64)
    row_of[rows] = np.arange(rows.size)
    row_start = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts[rows], out=row_start[1:])
    grow = row_of[gseg]
    by_row = np.argsort(grow, kind="stable")
    grow, change, gpos = grow[by_row], change[by_row], gpos[by_row]
    col = np.arange(grow.size) - row_start[grow]
    low = np.empty(rows.size, dtype=np.float64)
    at = np.empty(rows.size, dtype=np.int64)
    bounds = np.flatnonzero(np.diff(width)) + 1
    for r0, r1 in zip([0, *bounds.tolist()], [*bounds.tolist(), rows.size]):
        g0, g1 = row_start[r0], row_start[r1]
        grid = np.full((r1 - r0, width[r0]), np.inf)
        grid[grow[g0:g1] - r0, col[g0:g1]] = change[g0:g1]
        np.cumsum(grid, axis=1, out=grid)
        arg = np.argmin(grid, axis=1)
        low[r0:r1] = grid[np.arange(r1 - r0), arg]
        at[r0:r1] = gpos[row_start[r0:r1] + arg]
    # The gap before a segment's first change has coverage 0 and comes
    # first in time; a sweep minimum replaces it only if strictly lower.
    take = (gpos[row_start[:-1]] == 0) | (low < 0.0)
    best_w[rows] = np.where(take, low, 0.0)
    best_t[rows] = np.where(take, at, 0)
    return best_w, best_t


def min_interval_overlap_ampc(
    config: AMPCConfig,
    starts: np.ndarray,
    ends: np.ndarray,
    weights: np.ndarray,
    domain_end: int,
    *,
    ledger: RoundLedger | None = None,
) -> float:
    """Lemma 14 on the simulator: sort + compress + minimum prefix sum."""
    if domain_end < 0:
        raise ValueError("domain_end must be >= 0")
    if len(starts) == 0:
        return 0.0
    events: list[tuple[int, float]] = []
    for a, b, w in zip(
        np.asarray(starts).tolist(),
        np.asarray(ends).tolist(),
        np.asarray(weights, dtype=np.float64).tolist(),
    ):
        events.append((a, w))
        if b + 1 <= domain_end:
            events.append((b + 1, -w))
    if min(e[0] for e in events) > 0:
        events.append((0, 0.0))  # expose the leading zero-coverage gap

    # Ties must apply +w before -w?  Both belong to the same position:
    # coverage changes by their *sum* at that position, so compressing
    # equal positions first makes the order immaterial (Lemma 14's S'').
    sorted_events = ampc_sort(
        config, events, key=lambda e: e[0], ledger=ledger
    )
    compressed: list[float] = []
    last_pos: int | None = None
    for pos, delta in sorted_events:
        if pos == last_pos:
            compressed[-1] += delta
        else:
            compressed.append(delta)
            last_pos = pos
    return float(ampc_min_prefix_sum(config, compressed, ledger=ledger))
