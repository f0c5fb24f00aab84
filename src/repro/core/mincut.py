"""Algorithm 1 — AMPC-MinCut (Theorem 1).

Level-wise execution, following Section 2's space recurrence rather
than naive tree recursion: at level ``k`` the algorithm maintains
``s_k ~ t_k^(1 - eps/3)`` *instances* of size ``n / t_k`` (the paper's
aggregate branching — note ``s_{k+1} / s_k = x_k^(1 - eps/3)`` is
usually below 2, so materialising ``copies^depth`` recursion leaves
would be both wasteful and unfaithful).  Per level, in parallel for
every instance:

* draw fresh contraction keys (Algorithm 1 line 4),
* track the smallest singleton cut over the whole contraction process
  (line 5 — Algorithm 3, the paper's novel ``O(1/eps)``-round part),
* contract down to the next level's size (line 6).

Once instances fit a single machine (``<= n^eps`` vertices), each is
solved exactly there (lines 1–3, Stoer–Wagner) and the best cut over
everything ever seen is returned (line 8).

Round accounting: instances within a level run in parallel (max over
siblings, ``absorb_parallel``); levels are sequential; the schedule's
``O(log log n)`` depth gives Theorem 1's round bound.

Guarantee: every returned cut is a valid cut of the input; Lemma 2
makes it a ``(2+eps)``-approximation w.h.p. once boosted over
independent trials (:func:`ampc_min_cut_boosted`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

from ..ampc import AMPCConfig, RoundLedger
from ..graph import Cut, Graph
from .contraction import contract_to_size
from .keys import draw_contraction_keys
from .schedule import RecursionSchedule, schedule_for
from .singleton import smallest_singleton_cut

Vertex = Hashable

#: seed stride between boosting trials — trial ``t`` runs at
#: ``seed + t * BOOST_SEED_STRIDE``.  The serving layer's TrialExecutor
#: replicates this schedule, so it lives here as the single source.
BOOST_SEED_STRIDE = 7919


def default_boost_trials(n: int) -> int:
    """The booster's default trial count: ``ceil(log2(n)^2 / 4)``.

    The paper runs ``Theta(log^2 n)`` instances for the w.h.p. claim;
    the constant is a simulation knob (E2 measures the success curve).
    """
    return max(1, math.ceil(math.log2(max(4, n)) ** 2 / 4))


@dataclass
class MinCutResult:
    """Outcome of AMPC-MinCut."""

    cut: Cut
    ledger: RoundLedger
    schedule: RecursionSchedule
    #: number of base-case exact solves (final-level instances)
    base_solves: int
    #: total singleton-cut trackers run (instances across all levels)
    singleton_runs: int
    #: :meth:`repro.preprocess.CutKernel.stats` of the kernelization
    #: stage, when the run was preprocessed (None otherwise)
    kernel_stats: dict | None = None

    @property
    def weight(self) -> float:
        return self.cut.weight


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
            lifted = _lift(graph, parent.blocks, singleton.cut.side)
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
        lifted = _lift(graph, inst.blocks, cut.side)
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


def _lift(original: Graph, blocks: dict, side) -> Cut:
    """Lift a quotient cut side back to the original graph."""
    lifted: set = set()
    for rep in side:
        lifted.update(blocks[rep])
    return Cut.of(original, lifted)


def _compose_blocks(parent_blocks: dict, new_blocks: dict) -> dict:
    """Compose two levels of quotient maps (new reps -> original ids)."""
    return {
        rep: [orig for member in members for orig in parent_blocks[member]]
        for rep, members in new_blocks.items()
    }


def _exact_base_case(graph: Graph) -> Cut:
    from ..baselines.stoer_wagner import stoer_wagner_min_cut

    return stoer_wagner_min_cut(graph)


def ampc_min_cut_boosted(
    graph: Graph,
    *,
    eps: float = 0.5,
    trials: int | None = None,
    seed: int = 0,
    max_copies: int = 4,
    preprocess: str | None = None,
) -> MinCutResult:
    """Boosted Algorithm 1: best over independent trials.

    The paper runs ``Theta(log^2 n)`` instances for the w.h.p. claim;
    ``trials`` defaults to ``ceil(log2(n)^2 / 4)`` (the constant is a
    simulation knob — E2 measures the success curve explicitly).
    Trials are independent, hence parallel in the model: the boosted
    round count is the max over trials, not the sum.

    ``preprocess`` (``"off"``/``"safe"``/``"aggressive"``, default off)
    runs the exact kernelization pipeline of :mod:`repro.preprocess`
    first: trials execute on the reduced graph (with the default trial
    count recomputed for the *kernel* size) and the winning cut is
    lifted back — weight re-evaluated against the original, candidate
    cuts recorded by the reductions folded in.  A disconnected input,
    which the unpreprocessed path rejects, kernelizes to the exact
    weight-0 cut without running any trial.
    """
    if preprocess is not None and preprocess != "off":
        return _boosted_on_kernel(
            graph,
            level=preprocess,
            eps=eps,
            trials=trials,
            seed=seed,
            max_copies=max_copies,
        )
    n = graph.num_vertices
    if trials is None:
        trials = default_boost_trials(n)
    best: MinCutResult | None = None
    ledgers: list[RoundLedger] = []
    for t in range(trials):
        res = ampc_min_cut(
            graph,
            eps=eps,
            seed=seed + BOOST_SEED_STRIDE * t,
            max_copies=max_copies,
        )
        ledgers.append(res.ledger)
        if best is None or res.weight < best.weight:
            best = res
    assert best is not None
    combined = RoundLedger()
    combined.absorb_parallel(ledgers, f"boosting over {trials} parallel trials")
    best.ledger = combined
    return best


def _boosted_on_kernel(
    graph: Graph,
    *,
    level: str,
    eps: float,
    trials: int | None,
    seed: int,
    max_copies: int,
) -> MinCutResult:
    """Kernelize, boost on the kernel, lift the winner."""
    from ..preprocess import kernelize

    kernel = kernelize(graph, level=level)
    if kernel.is_solved:
        cut = kernel.trivial_cut()  # raises for n < 2, matching the solver
        ledger = RoundLedger()
        ledger.charge(
            1,
            "preprocess: kernelization solved the instance outright "
            "(no AMPC trial ran)",
            local_peak=graph.num_vertices,
            total_peak=graph.num_vertices + graph.num_edges,
        )
        return MinCutResult(
            cut=cut,
            ledger=ledger,
            schedule=schedule_for(max(2, graph.num_vertices), eps=eps),
            base_solves=0,
            singleton_runs=0,
            kernel_stats=kernel.stats(),
        )
    result = ampc_min_cut_boosted(
        kernel.graph,
        eps=eps,
        trials=trials,
        seed=seed,
        max_copies=max_copies,
    )
    result.cut = kernel.lift(result.cut.side)
    result.kernel_stats = kernel.stats()
    return result
