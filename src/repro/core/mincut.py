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

Line 6 is a prefix of the keys' MST, which Kruskal builds once per
copy and Algorithm 3's step 1 reads again; one pass contracts all of a
level's copies (:func:`~repro.core.contraction.contract_to_size` on a
batch, vertex ids offset per copy).  Line 5 does not hold up the
recursion: every copy of every level is recorded, and once the level
loop ends, one batched Algorithm 3 call tracks them all — steps 1–2
per copy, then one level-table pass, one interval build and sweep over
every copy's (level, leader) segments, and one witness pass.  The
copies are independent and line 5's cuts feed only line 8's minimum,
so this is the same computation as a call per copy, with numpy's
per-call cost paid once per level or per trial.

Instances carry index arrays, not label maps: each maps every input
vertex to its vertex in the instance, and each instance vertex to the
input vertex it is named after, whose one type-stable rank (computed
once per trial) orders the copy's vertices for Algorithm 3's rooting.
A candidate cut lifts as a mask over the input, weighed with
:meth:`Graph.cut_weight`'s own expression; only the winner becomes a
vertex set.

Once instances fit a single machine (``<= n^eps`` vertices), each is
solved exactly there (lines 1–3, Stoer–Wagner) and the best cut over
everything ever seen is returned (line 8): the copies' singleton cuts
in copy order, then the base cases.

Round accounting: instances within a level run in parallel (max over
siblings, ``absorb_parallel``); levels are sequential; the schedule's
``O(log log n)`` depth gives Theorem 1's round bound.

Guarantee: every returned cut is a valid cut of the input; Lemma 2
makes it a ``(2+eps)``-approximation w.h.p. once boosted over
independent trials (:func:`boost_min_cut`, over :mod:`repro.core.boost`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import compress
from typing import TYPE_CHECKING, Hashable

import numpy as np

from ..ampc import AMPCConfig, RoundLedger
from ..graph import Cut, Graph
from ..obs.tracing import NULL_TRACER, Tracer
from ..trees.rooted import stable_ranks
from .boost import TrialRunner, boost, default_boost_trials, run_in_process
from .contraction import contract_to_size
from .keys import draw_contraction_keys
from .schedule import RecursionSchedule, schedule_for
from .singleton import SingletonCopy, smallest_singleton_cut

if TYPE_CHECKING:
    from ..preprocess import CutKernel

Vertex = Hashable


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
    """One live instance: a contracted graph and its lift to the input."""

    graph: Graph
    #: input vertex index -> this graph's vertex index
    block: np.ndarray
    #: this graph's vertex index -> input index of its label
    label: np.ndarray


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

    ``max_copies`` (at least 2) caps the instance count per level (a
    wall-clock knob; the paper's ``s_k`` can reach ``t_k^(1-eps/3)``).
    ``eps`` plays its double role from the paper: memory exponent and
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

    # Every copy's vertices are input labels, so one type-stable rank
    # per input vertex orders them all.
    rank = np.array(stable_ranks(graph.vertices()), dtype=np.int64)
    identity = np.arange(n)
    instances: list[_Instance] = [_Instance(graph, identity, identity)]
    # Line 5's inputs, every copy of every level in order, with the
    # block arrays lifting each copy's cuts; then each level's sibling
    # group.
    tracked: list[SingletonCopy] = []
    lifts: list[np.ndarray] = []
    groups: list[tuple[list[RoundLedger], str]] = []
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

        next_instances: list[_Instance | None] = []
        drawn: list[tuple[int, _Instance, SingletonCopy]] = []
        for j in range(target_count):
            parent = instances[j % len(instances)]
            pg = parent.graph
            if pg.num_vertices <= schedule.base_size:
                next_instances.append(parent)
                continue
            rng_salt = (rng_salt * 1_000_003 + 10_007 * level.index + j) & 0x7FFFFFFF
            keys = draw_contraction_keys(pg, seed=rng_salt)
            sub_config = config.scaled(pg.num_vertices, pg.num_edges)
            copy = SingletonCopy(pg, keys, sub_config, RoundLedger(),
                                 rank[parent.label].tolist())
            tracked.append(copy)
            lifts.append(parent.block)
            drawn.append((len(next_instances), parent, copy))
            next_instances.append(None)

        # Line 6: every copy of the level after its first contractions.
        contracted = contract_to_size([
            (copy.graph, copy.keys,
             min(target_size, max(2, copy.graph.num_vertices - 1)))
            for _, _, copy in drawn
        ])
        for (slot, parent, copy), (cg, block, rep) in zip(drawn, contracted):
            copy.ledger.charge(
                1,
                "Algorithm 1 line 6: materialise the contracted copy "
                f"({copy.graph.num_vertices} -> {cg.num_vertices} vertices)",
                local_peak=copy.config.local_memory_words,
                total_peak=cg.num_vertices + cg.num_edges,
            )
            next_instances[slot] = _Instance(cg, block[parent.block], parent.label[rep])
        if drawn:
            groups.append((
                [copy.ledger for _, _, copy in drawn],
                f"Algorithm 1 level {level.index}: {len(drawn)} "
                f"parallel instances (contract x{level.x:.2f})",
            ))
        instances = next_instances

    # Line 5: track every copy's smallest singleton cut, all copies in
    # one Algorithm 3 call (they are independent; each charges its own
    # ledger, which the level's sibling group then absorbs).
    singletons = smallest_singleton_cut(tracked)
    for siblings, reason in groups:
        ledger.absorb_parallel(siblings, reason)
    # Line 8's candidates, each a side mask over the input: the copies'
    # singleton cuts in copy order, then the base cases (lines 1-3,
    # exact solves of every surviving instance on one machine).
    sides = [singleton.side[block] for block, singleton in zip(lifts, singletons)]
    base_solves = 0
    for inst in instances:
        if inst.graph.num_vertices < 2:
            continue
        base_solves += 1
        side = np.zeros(inst.graph.num_vertices, dtype=bool)
        side[[inst.graph.index_of(v) for v in _exact_base_case(inst.graph).side]] = True
        sides.append(side[inst.block])
    # Graph.cut_weight's expression, so each weight is the lifted Cut's.
    us, vs, ws = graph._columns()
    weights = [float(ws[side[us] ^ side[vs]].sum()) for side in sides]
    best = int(np.argmin(weights))
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
    return MinCutResult(
        cut=Cut(frozenset(compress(graph.vertices(), sides[best].tolist())), weights[best]),
        ledger=ledger,
        schedule=schedule,
        base_solves=base_solves,
        singleton_runs=len(tracked),
    )


def _exact_base_case(graph: Graph) -> Cut:
    from ..baselines.stoer_wagner import stoer_wagner_min_cut

    return stoer_wagner_min_cut(graph)


def min_cut_trials(
    graph: Graph | None, kernel: CutKernel | None = None, trials: int | None = None
) -> int:
    """``trials``, or when omitted: 0 if ``kernel`` solves the instance,
    else :func:`default_boost_trials` of the kernel's graph (or of
    ``graph`` without a kernel)."""
    if trials is not None:
        return trials
    if kernel is not None and kernel.is_solved:
        return 0
    return default_boost_trials((graph if kernel is None else kernel.graph).num_vertices)


def boost_min_cut(
    graph: Graph | None,
    *,
    kernel: CutKernel | None = None,
    eps: float = 0.5,
    trials: int | None = None,
    seed: int = 0,
    max_copies: int = 4,
    run: TrialRunner | None = None,
    tracer: Tracer = NULL_TRACER,
) -> MinCutResult:
    """Boosted Algorithm 1 on ``graph``, or on ``kernel`` and lifted back.

    A solved kernel answers outright (no trial, 0 rounds).  Otherwise
    :func:`~repro.core.boost.boost` runs :func:`min_cut_trials` trials
    through ``run`` (default: in process) and the winner is lifted
    through the kernel in a ``lift`` span.  ``max_copies`` is checked
    first, so a solved kernel rejects what a trial would.
    """
    if max_copies < 2:
        raise ValueError(f"max_copies must be >= 2, got {max_copies}")
    if kernel is not None and kernel.is_solved:
        return MinCutResult(
            cut=kernel.trivial_cut(),  # raises for n < 2, like the solver
            ledger=RoundLedger(),
            schedule=schedule_for(max(2, kernel.original.num_vertices), eps=eps),
            base_solves=0,
            singleton_runs=0,
            kernel_stats=kernel.stats(),
        )
    trials = min_cut_trials(graph, kernel, trials)
    result = boost(
        run or partial(run_in_process, ampc_min_cut),
        dict(graph=graph if kernel is None else kernel.graph, eps=eps,
             max_copies=max_copies),
        trials=trials,
        seed=seed,
        label=f"boosting over {trials} parallel trials",
    )
    if kernel is not None:
        with tracer.span("lift") as sp:
            result.cut = kernel.lift(result.cut.side)
            if sp:
                sp.set(side=len(result.cut.side))
        result.kernel_stats = kernel.stats()
    return result


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
    simulation knob — E2 measures the success curve explicitly) and
    must be at least 1 when given.  Trials are independent, hence
    parallel in the model: the boosted round count is the max over
    trials, not the sum.

    ``preprocess`` (``"off"``/``"safe"``/``"aggressive"``, default off)
    runs the exact kernelization pipeline of :mod:`repro.preprocess`
    first: trials execute on the reduced graph (with the default trial
    count recomputed for the *kernel* size) and the winning cut is
    lifted back — weight re-evaluated against the original, candidate
    cuts recorded by the reductions folded in.  A disconnected input,
    which the unpreprocessed path rejects, kernelizes to the exact
    weight-0 cut without running any trial (0 rounds).
    """
    kernel = None
    if preprocess is not None and preprocess != "off":
        from ..preprocess import kernelize

        kernel = kernelize(graph, level=preprocess)
    return boost_min_cut(
        graph, kernel=kernel, eps=eps, trials=trials, seed=seed,
        max_copies=max_copies,
    )
