"""Adaptive list ranking — the engine behind Lemma 4's tree rooting.

In MPC, list ranking needs pointer jumping and ``Θ(log n)`` rounds.  In
AMPC a machine can *walk* a pointer chain adaptively within one round
(each hop is one DHT read and needs O(1) local words), which yields the
classic anchor-sampling scheme of Behnezhad et al. [3]:

1. sample ``~ n^(1-eps)`` anchors (tails always included);
2. one round: every anchor walks the chain to the next anchor,
   producing a contracted weighted list;
3. recurse until the contracted list fits on one machine, which ranks
   it directly;
4. unwind: level by level, every remaining node walks to the next
   node whose rank is known and adds the hop weights.

Levels shrink as ``n -> n^(1-eps)`` so there are ``O(1/eps)`` levels and
``O(1/eps)`` rounds total.  Ranks are *distances to the tail* (tail has
rank 0), the convention the Euler-tour module builds on.
"""

from __future__ import annotations

import random
from typing import Hashable, Mapping, Sequence

import numpy as np

from .. import columnar as col
from ..config import AMPCConfig
from ..ledger import RoundLedger
from ..machine import MachineContext
from ..runtime import AMPCRuntime


def _anchor_count(n: int, eps: float) -> int:
    """Target size of the next level: ``ceil(n^(1-eps))``, at least 1."""
    if n <= 1:
        return 1
    return max(1, int(round(n ** (1.0 - eps))))


def ampc_list_rank(
    config: AMPCConfig,
    successor: Mapping[Hashable, Hashable | None],
    *,
    ledger: RoundLedger | None = None,
    seed: int = 0,
) -> dict[Hashable, int]:
    """Rank every node of a (multi-)linked list by distance to its tail.

    Parameters
    ----------
    successor:
        Maps each node to its successor, ``None`` for tails.  May
        describe several disjoint lists at once.  Must be acyclic.
    seed:
        Seed for the anchor sampling (determinism in tests).

    Returns
    -------
    dict node -> rank, where tails have rank 0 and each predecessor is
    one higher.  Lists over plain int nodes run as columnar round
    specs; everything else runs the object reference,
    :func:`_list_rank_object`.
    """
    nodes = list(successor.keys())
    if nodes and _listrank_columnar_ok(successor, nodes):
        runtime = AMPCRuntime(config, ledger=ledger)
        return _listrank_columnar(runtime, successor, nodes, random.Random(seed))
    return _list_rank_object(config, successor, ledger=ledger, seed=seed)


def _list_rank_object(
    config: AMPCConfig,
    successor: Mapping[Hashable, Hashable | None],
    *,
    ledger: RoundLedger | None = None,
    seed: int = 0,
) -> dict[Hashable, int]:
    """The object-path anchor sampling: one machine program per node."""
    nodes = list(successor.keys())
    runtime = AMPCRuntime(config, ledger=ledger)
    if not nodes:
        runtime.seed([(("empty",), True)])
        runtime.round(
            [(lambda ctx: ctx.write(("done",), True), None)],
            "list rank: trivial input",
        )
        return {}

    rng = random.Random(seed)
    capacity = max(4, config.local_memory_words // 8)

    # H_0 holds the level-0 list: successor and hop weight per node.
    items: list[tuple] = []
    for v in nodes:
        items.append((("succ", 0, v), successor[v]))
        items.append((("w", 0, v), 1))
    runtime.seed(items)

    # ------------------------------------------------------------------
    # Contraction levels.  The host only orchestrates *which* nodes act
    # at each level (sampling is control-plane); all chain data flows
    # through the DHT.
    # ------------------------------------------------------------------
    levels: list[list[Hashable]] = [nodes]
    level = 0
    while len(levels[level]) > capacity:
        current = levels[level]
        tails = [v for v in current if _level_succ(runtime, level, v) is None]
        non_tails = [v for v in current if _level_succ(runtime, level, v) is not None]
        if not non_tails:
            # Every remaining node is an original tail (all chains are
            # singletons at this level); their ranks are 0 — no further
            # contraction possible or needed.
            break
        want = _anchor_count(len(current), config.eps)
        k = max(0, min(len(non_tails), want - len(tails)))
        anchors = set(tails) | set(rng.sample(non_tails, k)) if k else set(tails)
        if not anchors:  # all-cycle guard; caller promised acyclic input
            raise ValueError("list has no tail; input must be acyclic")
        next_nodes = sorted(anchors, key=_stable_key)

        # Round A: anchors mark themselves so walkers can test membership.
        def mark(ctx: MachineContext, _lvl: int = level) -> None:
            ctx.write(("anchor", _lvl + 1, ctx.payload), True)

        runtime.round(
            [(mark, v) for v in next_nodes],
            f"list rank: mark anchors level {level + 1}",
            carry_forward=True,
        )

        # Round B: each anchor walks the level chain to the next anchor.
        def contract(ctx: MachineContext, _lvl: int = level) -> None:
            v = ctx.payload
            total = 0
            u = ctx.read(("succ", _lvl, v))
            w = ctx.read(("w", _lvl, v))
            while u is not None and not ctx.contains(("anchor", _lvl + 1, u)):
                total += w
                w = ctx.read(("w", _lvl, u))
                u = ctx.read(("succ", _lvl, u))
            if u is not None:
                total += w
            ctx.write(("succ", _lvl + 1, v), u)
            ctx.write(("w", _lvl + 1, v), total if u is not None else 0)

        runtime.round(
            [(contract, v) for v in next_nodes],
            f"list rank: contract level {level + 1}",
            carry_forward=True,
        )
        levels.append(next_nodes)
        level += 1

    # ------------------------------------------------------------------
    # Base case: one machine ranks the contracted list.  If the loop
    # exited because only tails remain (each its own singleton chain),
    # their ranks are zero and are written one machine per tail instead,
    # since they may not fit on a single machine.
    # ------------------------------------------------------------------
    top_nodes = levels[level]

    if len(top_nodes) > capacity:

        def zero_rank(ctx: MachineContext) -> None:
            ctx.write(("rank", ctx.payload), 0)

        runtime.round(
            [(zero_rank, v) for v in top_nodes],
            "list rank: tail ranks (degenerate all-singleton level)",
            carry_forward=True,
        )
        _unwind_levels(runtime, levels, level)
        return {v: runtime.table.get(("rank", v)) for v in nodes}

    def base_rank(ctx: MachineContext, _lvl: int = level) -> None:
        succ: dict[Hashable, Hashable | None] = {}
        weight: dict[Hashable, int] = {}
        ctx.hold(3 * len(top_nodes))
        for v in top_nodes:
            succ[v] = ctx.read(("succ", _lvl, v))
            weight[v] = ctx.read(("w", _lvl, v))
        rank: dict[Hashable, int] = {}

        def resolve(v: Hashable) -> int:
            # Iterative chain walk with memoisation (lists can be long).
            path = []
            on_path: set[Hashable] = set()
            u = v
            while u not in rank:
                if u in on_path:
                    raise ValueError(
                        "list has a cycle; input must be acyclic"
                    )
                path.append(u)
                on_path.add(u)
                nxt = succ[u]
                if nxt is None:
                    rank[u] = 0
                    path.pop()
                    break
                u = nxt
            for node in reversed(path):
                rank[node] = rank[succ[node]] + weight[node]
            return rank[v]

        for v in top_nodes:
            resolve(v)
            ctx.write(("rank", v), rank[v])
        ctx.release(3 * len(top_nodes))

    runtime.round([(base_rank, None)], "list rank: base case", carry_forward=True)

    _unwind_levels(runtime, levels, level)
    return {v: runtime.table.get(("rank", v)) for v in nodes}


def _unwind_levels(
    runtime: AMPCRuntime, levels: list[list[Hashable]], top_level: int
) -> None:
    """Descend the contraction pyramid, ranking each level's nodes."""
    for lvl in range(top_level - 1, -1, -1):
        known = set(levels[lvl + 1])
        pending = [v for v in levels[lvl] if v not in known]

        def unwind(ctx: MachineContext, _lvl: int = lvl) -> None:
            v = ctx.payload
            total = 0
            u = v
            while not ctx.contains(("rank", u)):
                total += ctx.read(("w", _lvl, u))
                u = ctx.read(("succ", _lvl, u))
                if u is None:  # tail without a written rank: rank 0
                    ctx.write(("rank", v), total)
                    return
            ctx.write(("rank", v), total + ctx.read(("rank", u)))

        runtime.round(
            [(unwind, v) for v in pending],
            f"list rank: unwind level {lvl}",
            carry_forward=True,
        )


def _level_succ(runtime: AMPCRuntime, level: int, v: Hashable):
    """Host-side peek at a node's successor (control-plane sampling aid)."""
    return runtime.table.get(("succ", level, v))


def _stable_key(v: Hashable):
    """A total order on mixed hashable labels: by type name, then by
    ``str`` (shared by the primitives and :mod:`repro.trees.rooted`)."""
    return (str(type(v)), str(v))


# ======================================================================
# Columnar path: same anchor-sampling scheme as picklable round specs
# ======================================================================

def _listrank_columnar_ok(
    successor: Mapping[Hashable, Hashable | None], nodes: Sequence[Hashable]
) -> bool:
    """True when the columnar path provably matches the object path.

    Nodes must be genuine Python ints (bools conflate with 0/1 under
    hashing but not under ``_stable_key``) and every successor must be
    a known node or ``None`` — dangling successors take the object
    path, which raises its documented lookup errors.
    """
    if not all(type(v) is int for v in nodes):
        return False
    node_set = set(nodes)
    return all(
        u is None or (type(u) is int and u in node_set)
        for u in successor.values()
    )


def _listrank_columnar(
    runtime: AMPCRuntime,
    successor: Mapping[Hashable, Hashable | None],
    nodes: Sequence[Hashable],
    rng: random.Random,
) -> dict[Hashable, int]:
    """Columnar twin of the anchor-sampling scheme, round for round.

    The host control flow — tail/non-tail classification, anchor
    sampling (same rng consumption), ``_stable_key`` ordering, level
    bookkeeping — is replicated verbatim, so round count, reasons and
    machine counts are identical.  Only the data plane changes: nodes
    are remapped to dense positions, per-level ``succ``/``w``/``anchor``
    columns live in int64 arrays (``-1`` encodes a tail), and the walk
    rounds are vectorized frontier steps from :mod:`repro.ampc.columnar`.
    """
    config = runtime.config
    capacity = max(4, config.local_memory_words // 8)
    n = len(nodes)
    node_id = {v: i for i, v in enumerate(nodes)}

    def idx_of(vs: Sequence[Hashable]) -> np.ndarray:
        return np.array([node_id[v] for v in vs], dtype=np.int64)

    succ0 = np.array(
        [-1 if successor[v] is None else node_id[successor[v]] for v in nodes],
        dtype=np.int64,
    )
    runtime.seed_columns(
        np.concatenate(
            [
                col.pack(col.T_SUCC_BASE + 0, np.arange(n)),
                col.pack(col.T_W_BASE + 0, np.arange(n)),
            ]
        ),
        np.concatenate([succ0, np.ones(n, dtype=np.int64)]),
    )

    levels: list[list[Hashable]] = [list(nodes)]
    level = 0
    while len(levels[level]) > capacity:
        current = levels[level]
        is_tail = (
            runtime.table.get_many(
                col.pack(col.T_SUCC_BASE + level, idx_of(current))
            )
            == -1
        ).tolist()
        tails = [v for v, t in zip(current, is_tail) if t]
        non_tails = [v for v, t in zip(current, is_tail) if not t]
        if not non_tails:
            break
        want = _anchor_count(len(current), config.eps)
        k = max(0, min(len(non_tails), want - len(tails)))
        anchors = set(tails) | set(rng.sample(non_tails, k)) if k else set(tails)
        if not anchors:  # all-cycle guard; caller promised acyclic input
            raise ValueError("list has no tail; input must be acyclic")
        next_nodes = sorted(anchors, key=_stable_key)
        nn_idx = idx_of(next_nodes)

        runtime.column_round(
            "lr_mark",
            {"idxs": nn_idx, "out_tag": col.T_ANCH_BASE + level + 1},
            len(next_nodes),
            f"list rank: mark anchors level {level + 1}",
            carry_forward=True,
        )
        runtime.column_round(
            "lr_contract",
            {
                "next_idxs": nn_idx,
                "succ_tag": col.T_SUCC_BASE + level,
                "w_tag": col.T_W_BASE + level,
                "anchor_tag": col.T_ANCH_BASE + level + 1,
                "out_succ_tag": col.T_SUCC_BASE + level + 1,
                "out_w_tag": col.T_W_BASE + level + 1,
                "max_steps": len(current) + 2,
            },
            len(next_nodes),
            f"list rank: contract level {level + 1}",
            carry_forward=True,
        )
        levels.append(next_nodes)
        level += 1

    top_nodes = levels[level]
    top_idx = idx_of(top_nodes)
    if len(top_nodes) > capacity:
        runtime.column_round(
            "lr_zero_rank",
            {"idxs": top_idx},
            len(top_nodes),
            "list rank: tail ranks (degenerate all-singleton level)",
            carry_forward=True,
        )
    else:
        runtime.column_round(
            "lr_base",
            {
                "top_idxs": top_idx,
                "succ_tag": col.T_SUCC_BASE + level,
                "w_tag": col.T_W_BASE + level,
            },
            1,
            "list rank: base case",
            carry_forward=True,
        )

    for lvl in range(level - 1, -1, -1):
        known = set(levels[lvl + 1])
        pending = [v for v in levels[lvl] if v not in known]
        runtime.column_round(
            "lr_unwind",
            {
                "pending_idxs": idx_of(pending),
                "succ_tag": col.T_SUCC_BASE + lvl,
                "w_tag": col.T_W_BASE + lvl,
                "max_steps": len(levels[lvl]) + 2,
            },
            len(pending),
            f"list rank: unwind level {lvl}",
            carry_forward=True,
        )

    ranks = runtime.table.get_many(col.pack(col.T_RANK, np.arange(n)))
    return {v: int(r) for v, r in zip(nodes, ranks.tolist())}
