"""Algorithm 3 — SmallestSingletonCut (Section 4, Theorem 3).

Computes the exact minimum weight over all singleton cuts arising
during the keyed contraction process, in ``O(1/eps)`` AMPC rounds:

1. minimum spanning tree of the keyed graph (unique keys => unique
   MST), read from the keys (:attr:`ContractionKeys.mst`), whose
   Kruskal pass Algorithm 1's contraction already ran;
2. generalized low-depth decomposition of the MST (Lemma 3);
3. ``O(log^2 n)`` level tuples ``(T, l, E, L_i)`` processed **in
   parallel** (Lemma 9): per level, leaders and ``ldr_time``
   (Lemma 11), edge time intervals (Lemma 13), and the interval
   minimum via the sweep (Lemma 14, Theorem 5);
4. the global minimum over levels (Lemma 15 / Observation 7).

One call solves a batch of independent graphs (:class:`SingletonCopy`,
each with its own keys, configuration and ledger): Algorithm 1 hands it
every copy of a trial at once, and a one-graph call is a batch of one.
Steps 1–2 run per copy (optionally ordering vertices by ranks the
caller inherited, :attr:`SingletonCopy.rank`).  Lemma 11 runs once
for the batch: one pointer-jumping pass builds every copy's
:class:`~repro.core.ldr.LevelTable`, which holds every level of the
copy, its leaders numbered as the copy's segments.  Host-side, steps
3–4 are columnar (:func:`sweep_levels`): every level's intervals, of
every copy, are built at once as masks over the edge columns, with one
segment per (copy, level, leader), and a single segmented sweep
returns each segment's exact minimum.  A copy's witness is the first
minimal segment in its own range; every copy's cut side is read off
the same MST rows in one pass
(:func:`~repro.core.contraction.prefix_roots`) and kept as a mask over
the copy's vertices (:attr:`SingletonCutResult.side`).

Differential guarantee (tested): the returned weight equals the naive
replay oracle's (:func:`repro.core.bags.replay_min_singleton`) on every
input.  The returned *witness* ``(leader, time)`` reconstructs the
actual cut side, so callers receive a usable :class:`~repro.graph.Cut`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import compress
from typing import Hashable, NamedTuple, Sequence, overload

import numpy as np

from ..ampc import AMPCConfig, RoundLedger
from ..graph import Cut, Graph
from ..trees.low_depth import low_depth_decomposition
from .bags import replay_min_singleton
from .contraction import prefix_roots
from .intervals import IntervalColumns, edge_intervals
from .keys import ContractionKeys, draw_contraction_keys
from .ldr import LevelTable, build_level_structure, keyed_tree
from .sweep import min_interval_overlap

Vertex = Hashable


@dataclass
class SingletonCutResult:
    """Outcome of Algorithm 3."""

    weight: float
    leader: Vertex
    time: int
    cut: Cut
    ledger: RoundLedger
    #: the cut side as a mask over the graph's vertex order
    side: np.ndarray | None = field(default=None, repr=False, compare=False)


class SingletonCopy(NamedTuple):
    """One graph of a batched call, with its own keys, model
    configuration and ledger, and optionally its vertices' ranks in the
    type-stable order (:func:`~repro.trees.rooted.stable_ranks`)."""

    graph: Graph
    keys: ContractionKeys
    config: AMPCConfig
    ledger: RoundLedger
    rank: Sequence[int] | None = None


@overload
def smallest_singleton_cut(
    graph: Graph,
    keys: ContractionKeys | None = None,
    *,
    seed: int = 0,
    config: AMPCConfig | None = None,
    ledger: RoundLedger | None = None,
    execute_on_simulator: bool = False,
) -> SingletonCutResult: ...


@overload
def smallest_singleton_cut(
    graph: Sequence[SingletonCopy],
    *,
    execute_on_simulator: bool = False,
) -> list[SingletonCutResult]: ...


def smallest_singleton_cut(
    graph,
    keys=None,
    *,
    seed=0,
    config=None,
    ledger=None,
    execute_on_simulator=False,
):
    """Run Algorithm 3 on ``graph`` (must be connected, n >= 2).

    ``keys`` defaults to freshly drawn weight-biased unique keys.
    Round/memory charges land in ``ledger`` (one is created if absent),
    each citing its lemma.

    ``graph`` may instead be a sequence of :class:`SingletonCopy`: the
    copies are solved in one batch, each charging its own ledger
    exactly as a one-graph call would, and the results come back as a
    list in copy order.

    With ``execute_on_simulator=True`` the MST (distributed sample sort
    + consolidation) and the *representative* interval sweep (the
    (level, leader) segment with the most intervals, the first on ties
    — segments run in parallel, so the parallel group costs its max
    sibling) genuinely execute on the AMPC runtime, making those rounds
    *measured* instead of charged; each must equal its host result.
    """
    if not isinstance(graph, Graph):
        if keys is not None or config is not None or ledger is not None:
            raise TypeError("each SingletonCopy carries its keys, config and ledger")
        return _track(graph, execute_on_simulator)
    n = graph.num_vertices
    if n < 2:
        raise ValueError("smallest singleton cut needs n >= 2")
    if config is None:
        config = AMPCConfig(n_input=n, m_input=graph.num_edges)
    if ledger is None:
        ledger = RoundLedger()
    if keys is None:
        keys = draw_contraction_keys(graph, seed=seed)
    copy = SingletonCopy(graph, keys, config, ledger)
    return _track([copy], execute_on_simulator)[0]


def _track(
    copies: Sequence[SingletonCopy], execute_on_simulator: bool
) -> list[SingletonCutResult]:
    """Algorithm 3 on every copy: steps 1–2 per copy, then Lemma 11,
    steps 3–4 and the witnesses each in one pass over all copies."""
    if not copies:
        return []
    tables = build_level_structure([
        keyed_tree(_steps_1_2(copy, execute_on_simulator), copy.keys)
        for copy in copies
    ])

    # ---------------------------------------------------- steps 3 and 4
    # The O(log^2 n) level tuples are processed in parallel in the
    # model; the round cost is the *maximum* per-level cost, which is
    # O(1/eps) (Lemmas 11 + 13 + 14), at a log^2 n blowup in total
    # space (Lemma 9).  The copies are independent, so one sweep
    # serves them all.
    swept = sweep_levels([(copy.graph, t) for copy, t in zip(copies, tables)])
    # First occurrence: ties go to the lowest (level, leader) segment.
    low = np.minimum.reduceat(swept.weight, swept.first[:-1])
    at = np.flatnonzero(swept.weight == np.repeat(low, np.diff(swept.first)))
    best = at[np.searchsorted(at, swept.first[:-1])].tolist()
    leaders = swept.leader[best].tolist()
    times = swept.time[best].tolist()
    # The witnesses bag(leader, t), as masks: one prefix-root pass over
    # every copy's MST.
    sizes = [copy.graph.num_vertices for copy in copies]
    root = prefix_roots(
        [copy.keys for copy in copies],
        [bisect_right(copy.keys.mst.key, t) for copy, t in zip(copies, times)],
    )
    start = np.cumsum(sizes) - sizes
    bags = root == np.repeat(root[start + leaders], sizes)

    results = []
    for c, (graph, keys, config, ledger, _) in enumerate(copies):
        n = sizes[c]
        best_weight = float(swept.weight[best[c]])
        if execute_on_simulator:
            lo, hi = int(swept.first[c]), int(swept.first[c + 1])
            _simulate_sweep(swept, lo, hi, config, ledger)
        else:
            log2n = math.ceil(math.log2(max(2, n)))
            ledger.charge(
                config.rounds_per_primitive,
                "Algorithm 3 lines 3-7: parallel level tuples — ldr_time "
                "(Lemma 11), time intervals (Lemma 13), interval sweep "
                "(Lemma 14/Theorem 5), min reduce (Lemma 15)",
                local_peak=config.local_memory_words,
                total_peak=(n + graph.num_edges) * log2n * log2n,
            )

        side = bags[start[c]:start[c] + n]
        us, vs, ws = graph._columns()
        # Graph.cut_weight's expression: the weight Cut.of would give.
        cut = Cut(
            frozenset(compress(graph.vertices(), side.tolist())),
            float(ws[side[us] ^ side[vs]].sum()),
        )
        if not 0 < len(cut.side) < n:
            raise ValueError("cut side must be a proper non-empty subset")
        ledger.charge(
            1,
            "witness extraction: materialise bag(leader, t) as a cut side",
            local_peak=config.local_memory_words,
            total_peak=n,
        )
        # The sweep minimum is the bag's boundary weight by construction;
        # the Cut re-evaluation cross-checks it, relative to its magnitude.
        if abs(cut.weight - best_weight) > 1e-6 * abs(best_weight):
            raise AssertionError(
                f"sweep minimum {best_weight} != witness cut weight {cut.weight}"
            )
        results.append(
            SingletonCutResult(
                weight=best_weight,
                leader=graph.vertices()[leaders[c]],
                time=times[c],
                cut=cut,
                ledger=ledger,
                side=side,
            )
        )
    return results


def _steps_1_2(copy, execute_on_simulator):
    """Steps 1–2 for one copy: the keyed MST (:attr:`ContractionKeys.mst`)
    and its low-depth decomposition, over the MST's index rows."""
    graph, keys, config, ledger, rank = copy
    n = graph.num_vertices
    if n < 2:
        raise ValueError("smallest singleton cut needs n >= 2")
    mst = keys.mst
    # ---------------------------------------------------------- step 1
    if execute_on_simulator:
        from ..ampc.primitives.mst import ampc_minimum_spanning_forest

        forest = ampc_minimum_spanning_forest(
            config, range(n), list(zip(keys.u, keys.v, keys.value)), ledger=ledger
        )
        if forest != list(zip(mst.u, mst.v, mst.key)):
            raise AssertionError("simulator MST != the keys' Kruskal MST")
    else:
        ledger.charge(
            config.rounds_per_primitive,
            "Algorithm 3 line 1: MST via sort + adaptive connectivity "
            "(Lemma 4 toolbox)",
            local_peak=config.local_memory_words,
            total_peak=n + graph.num_edges,
        )
    if len(mst.key) != n - 1:
        raise ValueError("graph must be connected")

    # ---------------------------------------------------------- step 2
    decomp = low_depth_decomposition(keys.vertices, rows=(mst.u, mst.v), rank=rank)
    log2n = math.ceil(math.log2(max(2, n)))
    ledger.charge(
        config.rounds_per_primitive,
        "Algorithm 3 line 2: generalized low-depth decomposition (Lemma 3)",
        local_peak=config.local_memory_words,
        total_peak=n * log2n * log2n,
    )
    return decomp


def _simulate_sweep(swept, lo, hi, config, ledger) -> None:
    """Execute one copy's representative sweep on the runtime.

    Levels (and leaders within a level) run in parallel; the parallel
    group's measured cost is its largest sibling's, so execute exactly
    that sibling's sweep — the copy's first largest segment, in edge
    order — and check it against the host sweep.
    """
    from .sweep import min_interval_overlap_ampc

    iv = swept.intervals
    sizes = np.bincount(iv.segment, minlength=swept.leader.size)
    rep = lo + int(np.argmax(sizes[lo:hi]))
    rows = np.flatnonzero(iv.segment == rep)
    rows = rows[np.argsort(iv.edge[rows], kind="stable")]
    measured = min_interval_overlap_ampc(
        config,
        iv.start[rows],
        iv.end[rows],
        iv.weight[rows],
        int(swept.domain_end[rep]),
        ledger=ledger,
    )
    host = float(swept.weight[rep])
    if abs(measured - host) > 1e-9:
        raise AssertionError(f"simulator sweep {measured} != host sweep {host}")


class LevelSweep(NamedTuple):
    """Steps 3–4's columns: one segment per (copy, level, leader), in
    order."""

    intervals: IntervalColumns
    #: segment -> its leader's ldr_time
    domain_end: np.ndarray
    #: segment -> its leader's vertex index in its copy's graph
    leader: np.ndarray
    #: segment -> minimum boundary weight over its domain
    weight: np.ndarray
    #: segment -> the first time attaining that minimum
    time: np.ndarray
    #: copy c's segments are ``first[c]:first[c + 1]``
    first: np.ndarray


def sweep_levels(copies: Sequence[tuple[Graph, LevelTable]]) -> LevelSweep:
    """Steps 3–4 host-side for every ``(graph, table)`` copy: every
    level's intervals as masks over the edge columns, then one sweep
    over every (copy, level, leader) segment.  Each copy's table must
    be indexed in its graph's vertex order."""
    intervals = edge_intervals(copies)
    tables = [table for _, table in copies]
    domain_end = np.concatenate([table.ldr_time for table in tables])
    weight, time = min_interval_overlap(intervals, domain_end)
    leader = np.concatenate([table.leader for table in tables])
    first = np.zeros(len(tables) + 1, dtype=np.int64)
    np.cumsum([table.leader.size for table in tables], out=first[1:])
    return LevelSweep(intervals, domain_end, leader, weight, time, first)


def smallest_singleton_cut_value(
    graph: Graph, keys: ContractionKeys | None = None, *, seed: int = 0
) -> float:
    """Weight-only convenience wrapper."""
    return smallest_singleton_cut(graph, keys, seed=seed).weight


def verify_against_replay(
    graph: Graph, keys: ContractionKeys | None = None, *, seed: int = 0
) -> tuple[float, float]:
    """Run both Algorithm 3 and the naive oracle; return both weights.

    Used by tests and the E3 benchmark; the two must agree exactly.
    """
    if keys is None:
        keys = draw_contraction_keys(graph, seed=seed)
    fast = smallest_singleton_cut(graph, keys).weight
    slow = replay_min_singleton(graph, keys).min_singleton_weight
    return fast, slow
