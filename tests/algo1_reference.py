"""Frozen per-copy path of Algorithm 1 (the reference).

This is ``ampc_min_cut`` as ``repro.core`` ran it before a trial's
copies were tracked in one batched Algorithm 3 call: each copy of each
recursion level ran its own ``smallest_singleton_cut`` (its own
interval build and its own sweep, the witness re-running Kruskal
through ``bag_at``), and ``root_tree`` keyed each vertex once per
comparison.  The code below is kept verbatim -- function bodies,
comments and charge reasons -- as the differential reference for the
batched path and as the "old" side of ``benchmarks/bench_algo1.py``.
The keys, their Kruskal MST, the contraction to size, the witness bag
and the sweep are frozen here as well, as they ran before a trial's
copies were contracted one level at a time on arrays; Stoer-Wagner is
imported from ``repro``, and the low-depth decomposition from its
frozen copy, ``tests/low_depth_reference.py``.  The level structures are
frozen here too (``index_tree`` and ``build_level_structure``, which
rebuilt a ``(neighbour, key)`` adjacency from the MST rows per copy),
since ``repro``'s walk the rooting the reference decomposition does
not keep, and so is the per-level ``LevelStructure`` record they
return, which ``repro`` replaced with one table per copy.  Nothing in
``src/`` imports it.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from low_depth_reference import LowDepthDecomposition, low_depth_decomposition
from repro.ampc import AMPCConfig, RoundLedger
from repro.core.intervals import CHUNK_CELLS, IntervalColumns
from repro.core.ldr import LevelTable
from repro.core.mincut import MinCutResult
from repro.core.schedule import schedule_for
from repro.core.singleton import SingletonCutResult
from repro.graph import Cut, Graph, IndexDSU, lift_cut
from repro.trees.rooted import RootedTree

Vertex = Hashable
EdgeId = tuple[Vertex, Vertex]


# --------------------------------------------------------------------
# Algorithm 1 (core/mincut.py)
# --------------------------------------------------------------------
@dataclass
class _Instance:
    """One live instance: a contracted graph + lift to original ids."""

    graph: Graph
    blocks: dict  # quotient vertex -> list of original vertices


def ampc_min_cut(
    graph: Graph,
    *,
    eps: float = 0.5,
    seed: int = 0,
    base_size: int | None = None,
    max_copies: int = 4,
    config: AMPCConfig | None = None,
) -> MinCutResult:
    """Run Algorithm 1 once on a connected graph with ``n >= 2``.

    ``max_copies`` caps the instance count per level (a wall-clock
    knob; the paper's ``s_k`` can reach ``t_k^(1-eps/3)``).  ``eps``
    plays its double role from the paper: memory exponent and
    approximation slack.
    """
    n = graph.num_vertices
    if n < 2:
        raise ValueError("min cut needs n >= 2")
    if len(graph.components()) != 1:
        raise ValueError("graph must be connected (min cut would be 0)")
    schedule = schedule_for(n, eps=eps, base_size=base_size, max_copies=max_copies)
    if config is None:
        config = AMPCConfig(n_input=n, eps=eps, m_input=graph.num_edges)
    ledger = RoundLedger()

    identity_blocks = {v: [v] for v in graph.vertices()}
    instances: list[_Instance] = [_Instance(graph=graph, blocks=identity_blocks)]
    best: Cut | None = None
    singleton_runs = 0
    rng_salt = seed

    for level in schedule.levels:
        if all(inst.graph.num_vertices <= schedule.base_size for inst in instances):
            break
        # Aggregate instance count for the next level: s ~ t^(1-eps/3).
        target_count = max(
            2,
            min(max_copies, round(level.t ** (1.0 - eps / 3.0))),
        )
        target_size = max(schedule.base_size, math.ceil(n / level.t))

        sibling_ledgers: list[RoundLedger] = []
        next_instances: list[_Instance] = []
        for j in range(target_count):
            parent = instances[j % len(instances)]
            pg = parent.graph
            if pg.num_vertices <= schedule.base_size:
                next_instances.append(parent)
                continue
            rng_salt = (rng_salt * 1_000_003 + 10_007 * level.index + j) & 0x7FFFFFFF
            copy_ledger = RoundLedger()
            keys = draw_contraction_keys(pg, seed=rng_salt)
            sub_config = config.scaled(pg.num_vertices, pg.num_edges)

            # Line 5: track this copy's smallest singleton cut.
            singleton_runs += 1
            singleton = smallest_singleton_cut(
                pg, keys, config=sub_config, ledger=copy_ledger
            )
            lifted = Cut.of(graph, lift_cut(parent.blocks, singleton.cut.side))
            if best is None or lifted.weight < best.weight:
                best = lifted

            # Line 6: the copy after its first contractions.
            this_target = min(target_size, max(2, pg.num_vertices - 1))
            contracted, blocks = contract_to_size(pg, keys, this_target)
            copy_ledger.charge(
                1,
                "Algorithm 1 line 6: materialise the contracted copy "
                f"({pg.num_vertices} -> {contracted.num_vertices} vertices)",
                local_peak=sub_config.local_memory_words,
                total_peak=contracted.num_vertices + contracted.num_edges,
            )
            composed = _compose_blocks(parent.blocks, blocks)
            next_instances.append(_Instance(graph=contracted, blocks=composed))
            sibling_ledgers.append(copy_ledger)

        if sibling_ledgers:
            ledger.absorb_parallel(
                sibling_ledgers,
                f"Algorithm 1 level {level.index}: {len(sibling_ledgers)} "
                f"parallel instances (contract x{level.x:.2f})",
            )
        instances = next_instances

    # Lines 1-3: exact solve of every surviving instance on one machine.
    base_solves = 0
    for inst in instances:
        if inst.graph.num_vertices < 2:
            continue
        base_solves += 1
        cut = _exact_base_case(inst.graph)
        lifted = Cut.of(graph, lift_cut(inst.blocks, cut.side))
        if best is None or lifted.weight < best.weight:
            best = lifted
    ledger.charge(
        1,
        "Algorithm 1 lines 1-3: exact Min Cut of base instances, one "
        f"machine each (<= base size {schedule.base_size})",
        local_peak=min(config.local_memory_words, schedule.base_size**2),
        total_peak=sum(i.graph.num_vertices + i.graph.num_edges for i in instances),
    )
    ledger.charge(
        1,
        "Algorithm 1 line 8: min-reduce over all candidate cuts",
        local_peak=len(instances) + 2,
        total_peak=len(instances),
    )
    assert best is not None
    return MinCutResult(
        cut=best,
        ledger=ledger,
        schedule=schedule,
        base_solves=base_solves,
        singleton_runs=singleton_runs,
    )


def _compose_blocks(parent_blocks: dict, new_blocks: dict) -> dict:
    """Compose two levels of quotient maps (new reps -> original ids)."""
    return {
        rep: [orig for member in members for orig in parent_blocks[member]]
        for rep, members in new_blocks.items()
    }


def _exact_base_case(graph: Graph) -> Cut:
    from repro.baselines.stoer_wagner import stoer_wagner_min_cut

    return stoer_wagner_min_cut(graph)



# --------------------------------------------------------------------
# Algorithm 3, one graph per call (core/singleton.py)
# --------------------------------------------------------------------
def smallest_singleton_cut(
    graph: Graph,
    keys: ContractionKeys | None = None,
    *,
    seed: int = 0,
    config: AMPCConfig | None = None,
    ledger: RoundLedger | None = None,
    execute_on_simulator: bool = False,
) -> SingletonCutResult:
    """Run Algorithm 3 on ``graph`` (must be connected, n >= 2).

    ``keys`` defaults to freshly drawn weight-biased unique keys.
    Round/memory charges land in ``ledger`` (one is created if absent),
    each citing its lemma.

    With ``execute_on_simulator=True`` the MST (distributed sample sort
    + consolidation) and the *representative* interval sweep (the
    (level, leader) segment with the most intervals, the first on ties
    — segments run in parallel, so the parallel group costs its max
    sibling) genuinely execute on the AMPC runtime, making those rounds
    *measured* instead of charged.
    """
    n = graph.num_vertices
    if n < 2:
        raise ValueError("smallest singleton cut needs n >= 2")
    if config is None:
        config = AMPCConfig(n_input=n, m_input=graph.num_edges)
    if ledger is None:
        ledger = RoundLedger()
    if keys is None:
        keys = draw_contraction_keys(graph, seed=seed)

    # ---------------------------------------------------------- step 1
    if execute_on_simulator:
        from repro.ampc.primitives.mst import ampc_minimum_spanning_forest

        keyed_edges = [(u, v, keys.of(u, v)) for u, v, _ in graph.edges()]
        forest = ampc_minimum_spanning_forest(
            config, graph.vertices(), keyed_edges, ledger=ledger
        )
        mst = sorted((k, u, v) for (u, v, k) in forest)
    else:
        mst = mst_of_keys(graph, keys)
        ledger.charge(
            config.rounds_per_primitive,
            "Algorithm 3 line 1: MST via sort + adaptive connectivity "
            "(Lemma 4 toolbox)",
            local_peak=config.local_memory_words,
            total_peak=n + graph.num_edges,
        )
    if len(mst) != n - 1:
        raise ValueError("graph must be connected")
    max_tree_key = max(k for k, _, _ in mst)

    # ---------------------------------------------------------- step 2
    tree = root_tree(graph.vertices(), [(u, v) for _, u, v in mst])
    decomp = low_depth_decomposition(
        graph.vertices(), [(u, v) for _, u, v in mst], precomputed_tree=tree
    )
    log2n = math.ceil(math.log2(max(2, n)))
    ledger.charge(
        config.rounds_per_primitive,
        "Algorithm 3 line 2: generalized low-depth decomposition (Lemma 3)",
        local_peak=config.local_memory_words,
        total_peak=n * log2n * log2n,
    )

    # ---------------------------------------------------- steps 3 and 4
    # The O(log^2 n) level tuples are processed in parallel in the
    # model; the round cost is the *maximum* per-level cost, which is
    # O(1/eps) (Lemmas 11 + 13 + 14), at a log^2 n blowup in total
    # space (Lemma 9).
    swept = sweep_levels(graph, keys, decomp, max_tree_key=max_tree_key)
    # First occurrence: ties go to the lowest (level, leader) segment.
    best = int(np.argmin(swept.weight))
    best_weight = float(swept.weight[best])
    best_leader = graph.vertices()[int(swept.leader[best])]
    best_time = int(swept.time[best])
    if execute_on_simulator:
        # Levels (and leaders within a level) run in parallel; the
        # parallel group's measured cost is its largest sibling's, so
        # execute exactly that sibling's sweep on the runtime.
        from repro.core.sweep import min_interval_overlap_ampc

        iv = swept.intervals
        sizes = np.bincount(iv.segment, minlength=swept.leader.size)
        rep = int(np.argmax(sizes))  # the first largest segment
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
            raise AssertionError(
                f"simulator sweep {measured} != host sweep {host}"
            )
    else:
        ledger.charge(
            config.rounds_per_primitive,
            "Algorithm 3 lines 3-7: parallel level tuples — ldr_time "
            "(Lemma 11), time intervals (Lemma 13), interval sweep "
            "(Lemma 14/Theorem 5), min reduce (Lemma 15)",
            local_peak=config.local_memory_words,
            total_peak=(n + graph.num_edges) * log2n * log2n,
        )

    side = bag_at(graph, keys, best_leader, best_time)
    cut = Cut.of(graph, side)
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
    return SingletonCutResult(
        weight=float(best_weight),
        leader=best_leader,
        time=best_time,
        cut=cut,
        ledger=ledger,
    )


class LevelSweep(NamedTuple):
    """Steps 3–4's columns: one segment per (level, leader), in order."""

    intervals: IntervalColumns
    #: segment -> its leader's ldr_time
    domain_end: np.ndarray
    #: segment -> its leader's graph vertex index
    leader: np.ndarray
    #: segment -> minimum boundary weight over its domain
    weight: np.ndarray
    #: segment -> the first time attaining that minimum
    time: np.ndarray


def sweep_levels(
    graph: Graph,
    keys: ContractionKeys,
    decomp: LowDepthDecomposition,
    *,
    max_tree_key: int,
) -> LevelSweep:
    """Steps 3–4 host-side: every level's intervals as masks over the
    edge columns, then one sweep over every (level, leader) segment."""
    tree = index_tree(decomp, keys)
    levels = [build_level_structure(tree, i) for i in range(1, decomp.height + 1)]
    intervals = edge_intervals(graph, levels)
    domain_end = np.concatenate([level.ldr_times for level in levels])
    weight, time = min_interval_overlap(intervals, domain_end)
    leader = np.concatenate([level.leaders for level in levels])
    return LevelSweep(intervals, domain_end, leader, weight, time)



# --------------------------------------------------------------------
# Lemma 13 on one graph's levels (core/intervals.py)
# --------------------------------------------------------------------
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


# --------------------------------------------------------------------
# Level structures (core/ldr.py)
# --------------------------------------------------------------------
@dataclass(frozen=True)
class IndexedTree:
    """A decomposed, keyed spanning tree over a fixed vertex order."""

    #: index -> vertex
    vertices: list[Vertex]
    #: index -> decomposition label
    label: list[int]
    #: index -> [(neighbour index, key of the tree edge), ...]
    adjacency: list[list[tuple[int, int]]]
    #: level -> indices of its label vertices, in decomposition order
    leaders: dict[int, list[int]]
    #: largest tree-edge key (caps the unbounded leader's ldr_time)
    max_tree_key: int
    height: int


def index_tree(
    decomp: LowDepthDecomposition, keys: ContractionKeys
) -> IndexedTree:
    """Index ``decomp``'s tree in the keys' vertex order.  The tree is
    the keyed MST, which ``decomp`` decomposes over that order; its
    labels and leader order are ``decomp``'s ``labels`` and ``order``,
    and its edges, their keys and its largest key are read off
    :attr:`ContractionKeys.mst`."""
    label = decomp.labels
    adjacency: list[list[tuple[int, int]]] = [[] for _ in label]
    mst = keys.mst
    for k, a, b in zip(mst.key, mst.u, mst.v):
        adjacency[a].append((b, k))
        adjacency[b].append((a, k))
    leaders: dict[int, list[int]] = {}
    for i in decomp.order:
        leaders.setdefault(label[i], []).append(i)
    return IndexedTree(
        vertices=keys.vertices,
        label=label,
        adjacency=adjacency,
        leaders=leaders,
        max_tree_key=mst.key[-1] if mst.key else 0,
        height=max(label),
    )


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


def build_level_structure(tree: IndexedTree, level: int) -> LevelStructure:
    """Compute the Lemma-11 quantities for one level."""
    label = tree.label
    adjacency = tree.adjacency
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
            for u, k in adjacency[v]:
                t_u = t_v if t_v > k else k
                if label[u] >= level:
                    # Trees have unique paths, so each vertex is
                    # discovered once; the slot test also skips the
                    # DFS parent.
                    if slot[u] < 0:
                        slot[u] = s
                        join[u] = t_u
                        stack.append(u)
                elif first_crossing is None or t_u < first_crossing:
                    # Boundary edge (Lemma 10: at most two per component).
                    first_crossing = t_u
        ldr.append(
            tree.max_tree_key - 1 if first_crossing is None else first_crossing - 1
        )
    return LevelStructure(
        level=level,
        vertices=tree.vertices,
        leader_slot=np.array(slot, dtype=np.int64),
        join_times=np.array(join, dtype=np.int64),
        leaders=np.array(leaders, dtype=np.int64),
        ldr_times=np.array(ldr, dtype=np.int64),
    )


# --------------------------------------------------------------------
# Rooting (trees/rooted.py)
# --------------------------------------------------------------------
def root_tree(
    vertices: Sequence[Vertex],
    edges: Iterable[tuple[Vertex, Vertex]],
    *,
    root: Vertex | None = None,
) -> RootedTree:
    """Sequential rooting: BFS orientation + postorder subtree sizes.

    Mirrors the output contract of Lemma 4 / :func:`ampc_root_forest`
    for a single tree; ``root`` defaults to the minimum vertex under a
    type-stable order.  Children are sorted the same way, so preorder
    matches the AMPC Euler-tour order.
    """
    vertices = list(vertices)
    if not vertices:
        raise ValueError("empty vertex set")
    adjacency: dict[Vertex, list[Vertex]] = {v: [] for v in vertices}
    edge_count = 0
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
        edge_count += 1
    if edge_count != len(vertices) - 1:
        raise ValueError(
            f"not a tree: {len(vertices)} vertices but {edge_count} edges"
        )
    for v in adjacency:
        adjacency[v].sort(key=_stable_key)
    if root is None:
        root = min(vertices, key=_stable_key)

    parent: dict[Vertex, Vertex | None] = {root: None}
    depth: dict[Vertex, int] = {root: 1}
    children: dict[Vertex, list[Vertex]] = {v: [] for v in vertices}
    stack: list[Vertex] = [root]
    visited = {root}
    while stack:
        v = stack.pop()
        for u in adjacency[v]:
            if u not in visited:
                visited.add(u)
                parent[u] = v
                depth[u] = depth[v] + 1
                children[v].append(u)
                stack.append(u)
    if len(visited) != len(vertices):
        raise ValueError("edge set does not connect all vertices")
    for v in children:
        children[v].sort(key=_stable_key)

    # Preorder in child (adjacency) order.  Note: the AMPC rooting's
    # preorder visits children in cyclic order starting after the
    # entering arc, so the two preorders may differ — both are valid
    # DFS preorders (contiguous subtree ranges), which is the only
    # property Section 3 consumes (heavy paths are sorted by depth,
    # identical under any preorder).
    preorder: dict[Vertex, int] = {}
    counter = 0
    stack2: list[Vertex] = [root]
    while stack2:
        v = stack2.pop()
        preorder[v] = counter
        counter += 1
        for u in reversed(children[v]):
            stack2.append(u)

    subtree: dict[Vertex, int] = {v: 1 for v in vertices}
    for v in sorted(vertices, key=lambda x: -depth[x]):
        p = parent[v]
        if p is not None:
            subtree[p] += subtree[v]

    return RootedTree(
        root=root,
        parent=parent,
        children=children,
        depth=depth,
        subtree_size=subtree,
        preorder=preorder,
    )


def _stable_key(v: Vertex):
    return (str(type(v)), str(v))



# --------------------------------------------------------------------
# Keys, contraction and the sweep (core/keys.py, core/contraction.py,
# core/sweep.py), frozen before their batched replacements
# --------------------------------------------------------------------
class KeyedMST(NamedTuple):
    """The keyed MST (a forest on a disconnected graph) in Kruskal
    order: row ``i`` is the ``i``-th contraction that merges two bags,
    with its key, its endpoints' vertex indices, and the union–find
    roots it joined (``absorbed`` hangs under ``root``)."""

    key: list[int]
    u: list[int]
    v: list[int]
    root: list[int]
    absorbed: list[int]


@dataclass(frozen=True)
class ContractionKeys:
    """Unique integer contraction keys for every edge of a graph.

    Row ``i`` is the edge with the ``i``-th smallest key: endpoints
    ``u[i]``, ``v[i]`` (indices into ``vertices``, the graph's vertex
    order) and key ``value[i]``, ascending.  ``key_space`` is the
    paper's ``n^3`` bound.
    """

    vertices: list[Vertex]
    u: list[int]
    v: list[int]
    value: list[int]
    key_space: int

    @property
    def max_key(self) -> int:
        """The largest assigned key (0 without edges)."""
        return self.value[-1] if self.value else 0

    @cached_property
    def key(self) -> dict[EdgeId, int]:
        """``key[(u, v)]`` for both orientations of each edge."""
        V = self.vertices
        key: dict[EdgeId, int] = {}
        for k, a, b in zip(self.value, self.u, self.v):
            key[(V[a], V[b])] = k
            key[(V[b], V[a])] = k
        return key

    def of(self, u: Vertex, v: Vertex) -> int:
        return self.key[(u, v)]

    def edges_by_key(self) -> list[tuple[int, Vertex, Vertex]]:
        """(key, u, v) triples, ascending, one per undirected edge.

        Cached after the first call (keys are immutable); callers must
        not mutate the returned list.
        """
        return self._labelled

    @cached_property
    def _labelled(self) -> list[tuple[int, Vertex, Vertex]]:
        V = self.vertices
        return [(k, V[a], V[b]) for k, a, b in zip(self.value, self.u, self.v)]

    @cached_property
    def mst(self) -> KeyedMST:
        """Kruskal over the rows: unique keys give a unique MST."""
        n = len(self.vertices)
        dsu = IndexDSU(n)
        mst = KeyedMST([], [], [], [], [])
        for k, a, b in zip(self.value, self.u, self.v):
            absorbed = dsu.union(a, b)
            if absorbed < 0:
                continue
            mst.key.append(k)
            mst.u.append(a)
            mst.v.append(b)
            mst.root.append(dsu.parent[absorbed])
            mst.absorbed.append(absorbed)
            if len(mst.key) == n - 1:
                break
        return mst


def _spread_ranks(m: int, key_space: int) -> list[int]:
    """Rank ``1..m`` spread over ``[1, key_space]`` preserving order.

    A simple graph has ``m <= n(n-1)/2 < n^3 = key_space`` edges, so
    the stride is at least 1 and ``m * stride < key_space``: the keys
    are unique and inside the key space.
    """
    stride = key_space // (m + 1)
    return list(range(stride, (m + 1) * stride, stride))


def _ranked(graph: Graph, order: Sequence[int], key_space: int) -> ContractionKeys:
    """Keys for ``graph``'s edge rows taken in ``order``."""
    us, vs, _ = graph._columns()
    return ContractionKeys(
        vertices=graph.vertices(),
        u=us[order].tolist(),
        v=vs[order].tolist(),
        value=_spread_ranks(len(order), key_space),
        key_space=key_space,
    )


def draw_contraction_keys(graph: Graph, *, seed: int = 0) -> ContractionKeys:
    """Draw weight-biased unique keys for every edge of ``graph``."""
    rng = random.Random(seed)
    n = graph.num_vertices
    key_space = max(1, n**3)
    ws = graph._columns()[2]
    m = len(ws)
    # The uniform draws must come from the Python RNG one edge at a
    # time, in edge-storage order — the reproducibility contract ties
    # seeds to this exact stream.  Everything downstream (clocks,
    # ordering, rank spreading) is vectorized over the columns.
    unif = np.fromiter((rng.random() for _ in range(m)), np.float64, count=m)
    # Exp(1)/w: smaller for heavier edges => contracted earlier.  The
    # per-element math.log keeps clock values bit-identical to the
    # scalar implementation (SIMD log kernels may round differently).
    clocks = np.fromiter(
        (-math.log(c) for c in np.maximum(unif, 1e-300).tolist()),
        np.float64,
        count=m,
    )
    clocks /= ws
    return _ranked(graph, np.argsort(clocks, kind="stable"), key_space)


def mst_of_keys(
    graph: Graph, keys: ContractionKeys
) -> list[tuple[int, Vertex, Vertex]]:
    """The MST of ``graph`` under ``keys`` (drawn on it), as
    ``(key, u, v)`` ascending."""
    V = keys.vertices
    mst = keys.mst
    return [(k, V[a], V[b]) for k, a, b in zip(mst.key, mst.u, mst.v)]


def contract_to_size(
    graph: Graph,
    keys: ContractionKeys,
    target_vertices: int,
) -> tuple[Graph, dict[Vertex, list[Vertex]]]:
    """Contract cheapest-key MST edges until ``target_vertices`` remain.

    Returns the quotient graph (parallel edges merged by weight sum,
    self-loops dropped) and the representative->members blocks mapping
    for lifting cuts back.  Contracts nothing if the graph is already
    at or below the target.

    The blocks are Kruskal's union–find sets after the MST's first
    ``n - target_vertices`` unions — the edges skipped as cycles never
    change a root — named by their roots; a single vectorized
    :meth:`Graph.quotient` materialises the contracted graph.  So the
    contraction is a prefix of the MST.
    """
    if target_vertices < 1:
        raise ValueError("target_vertices must be >= 1")
    vertices = graph.vertices()
    n = len(vertices)
    root = _prefix_roots(keys, min(n - target_vertices, len(keys.mst.key)))
    return graph.quotient({v: vertices[r] for v, r in zip(vertices, root)})


def _prefix_roots(keys: ContractionKeys, prefix: int) -> list[int]:
    """Each vertex index's union–find root after the MST's first
    ``prefix`` unions."""
    mst = keys.mst
    root = list(range(len(keys.vertices)))
    # Backwards over the prefix, each absorbed root takes the final
    # root of the root it joined (which a later union may absorb).
    for s in reversed(range(prefix)):
        root[mst.absorbed[s]] = root[mst.root[s]]
    return root


def bag_at(
    graph: Graph, keys: ContractionKeys, v: Vertex, t: int
) -> frozenset:
    """``bag(v, t)``: vertices reachable from ``v`` by MST edges of key <= t.

    Definition 6 says *tree* edges; reachability over all edges of key
    <= t gives the same set (non-tree edges with small keys connect
    vertices already joined by smaller tree keys — the Kruskal cycle
    property), which tests assert.
    """
    return mst_bag(keys, graph.index_of(v), t)


def mst_bag(keys: ContractionKeys, v: int, t: int) -> frozenset:
    """``bag(V[v], t)`` for the vertex of index ``v``: the vertices
    joined to it by the keyed MST's edges of key <= t, as labels.

    Algorithm 3's witness, on the MST its step 1 read."""
    root = _prefix_roots(keys, bisect_right(keys.mst.key, t))
    r = root[v]
    return frozenset(x for x, rx in zip(keys.vertices, root) if rx == r)


def min_interval_overlap(
    intervals: IntervalColumns,
    domain_end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per segment ``s``: minimum total weight covering any
    ``t ∈ [0, domain_end[s]]``, and the smallest such ``t``.

    Returns ``(weights, times)``, one entry per segment.  A leading
    uncovered gap, and a segment without intervals, yield ``(0.0, 0)``.
    Events past a segment's domain are dropped, so intervals may overrun
    it; they must satisfy ``0 <= start <= end``.
    """
    domain_end = np.asarray(domain_end, dtype=np.int64)
    segment, start, end, weight, edge = intervals
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
    order = np.lexsort((np.concatenate([edge, edge])[keep], is_end, pos, seg))
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


# --------------------------------------------------------------------
# Lemma 11's level table, one DFS per leader per level (core/ldr.py)
# --------------------------------------------------------------------
def build_level_table(tree) -> LevelTable:
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
