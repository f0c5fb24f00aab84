"""Frozen per-copy path of Algorithm 1 (the reference).

This is ``ampc_min_cut`` as ``repro.core`` ran it before a trial's
copies were tracked in one batched Algorithm 3 call: each copy of each
recursion level ran its own ``smallest_singleton_cut`` (its own
interval build and its own sweep, the witness re-running Kruskal
through ``bag_at``), and ``root_tree`` keyed each vertex once per
comparison.  The code below is kept verbatim -- function bodies,
comments and charge reasons -- as the differential reference for the
batched path and as the "old" side of ``benchmarks/bench_algo1.py``.
Unchanged helpers (keys, contraction, the sweep, Stoer-Wagner) are
imported from ``repro``; the low-depth decomposition from its frozen
copy, ``tests/low_depth_reference.py``.  The level structures are
frozen here too (``index_tree`` and ``build_level_structure``, which
rebuilt a ``(neighbour, key)`` adjacency from the MST rows per copy),
since ``repro``'s walk the rooting the reference decomposition does
not keep, and so is the per-level ``LevelStructure`` record they
return, which ``repro`` replaced with one table per copy.  Nothing in
``src/`` imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from low_depth_reference import LowDepthDecomposition, low_depth_decomposition
from repro.ampc import AMPCConfig, RoundLedger
from repro.core.contraction import bag_at, contract_to_size, mst_of_keys
from repro.core.intervals import CHUNK_CELLS, IntervalColumns
from repro.core.keys import ContractionKeys, draw_contraction_keys
from repro.core.mincut import MinCutResult
from repro.core.schedule import schedule_for
from repro.core.singleton import SingletonCutResult
from repro.core.sweep import min_interval_overlap
from repro.graph import Cut, Graph, lift_cut
from repro.trees.rooted import RootedTree

Vertex = Hashable


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
