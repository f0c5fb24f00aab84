"""Algorithm 4 — APX-SPLIT for Min k-Cut (Section 5, Theorem 2).

Greedy splitting with approximate cuts: while the working graph has
fewer than ``k`` components, compute a ``(2+eps)``-approximate min cut
in *every* current component (in parallel — one ``O(log log n)`` round
block per iteration), remove the lightest one's edges, repeat.  At most
``k - 1`` iterations, giving ``O(k log log n)`` rounds; the Gomory–Hu
argument of Theorem 2 makes the union a ``(4+eps)``-approximate
min k-cut.

The returned :class:`KCutResult` carries the chosen cut edge sets
(``D`` in the pseudocode), the final partition, and the ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Hashable

from ..ampc import RoundLedger
from ..graph import Graph, KCut
from ..obs.tracing import NULL_TRACER, Tracer
from .boost import TrialRunner, boost, run_in_process
from .mincut import ampc_min_cut

if TYPE_CHECKING:
    from ..preprocess import KCutKernel

Vertex = Hashable


@dataclass
class KCutResult:
    """Outcome of APX-SPLIT."""

    kcut: KCut
    #: the sets of removed edges, one per greedy iteration (kernel-level
    #: pairs when the run was preprocessed)
    cut_edge_sets: tuple[tuple[tuple[Vertex, Vertex], ...], ...]
    ledger: RoundLedger
    iterations: int
    #: :meth:`repro.preprocess.KCutKernel.stats` of the kernelization
    #: stage, when the run was preprocessed (None otherwise)
    kernel_stats: dict | None = None

    @property
    def weight(self) -> float:
        return self.kcut.weight


def apx_split_kcut(
    graph: Graph,
    k: int,
    *,
    eps: float = 0.5,
    seed: int = 0,
    max_copies: int = 2,
    exact_below: int = 16,
    preprocess: str | None = None,
) -> KCutResult:
    """Run APX-SPLIT on a connected graph.

    ``exact_below``: components smaller than this are cut exactly
    (Stoer–Wagner) — matching Algorithm 1's own base case and keeping
    the simulation fast.  ``k`` may not exceed ``n``.

    ``preprocess`` (default off) applies the k-cut-safe kernelization
    of :func:`repro.preprocess.kernelize_for_kcut`: edges no optimal
    k-cut can cross are contracted, the greedy runs on the kernel, and
    the partition is lifted back to the original vertex set (weight
    re-evaluated there; the bootstrap candidate k-cut folded in).  The
    optimum weight is preserved exactly; the (4+eps) greedy itself may
    legitimately return a different — never invalid — partition than
    the unpreprocessed run.
    """
    n = graph.num_vertices
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if preprocess is not None and preprocess != "off":
        from ..preprocess import kernelize_for_kcut

        kernel = kernelize_for_kcut(graph, k, level=preprocess)
        return boost_kcut(graph, k, kernel=kernel, eps=eps, seed=seed,
                          max_copies=max_copies, exact_below=exact_below)
    ledger = RoundLedger()
    working = graph.copy()
    removed: list[tuple[tuple[Vertex, Vertex], ...]] = []
    iterations = 0

    while True:
        components = working.components()
        if len(components) >= k:
            break
        iterations += 1
        # Parallel min cuts, one per (non-singleton) component; the
        # iteration's round cost is the max over components.
        sibling_ledgers: list[RoundLedger] = []
        best_edges: tuple[tuple[Vertex, Vertex], ...] | None = None
        best_weight = math.inf
        for comp in components:
            if len(comp) < 2:
                continue
            sub = working.induced_subgraph(comp)
            if len(comp) <= exact_below:
                from ..baselines.stoer_wagner import stoer_wagner_min_cut

                cut = stoer_wagner_min_cut(sub)
                comp_ledger = RoundLedger()
                comp_ledger.charge(
                    1,
                    "APX-SPLIT: exact cut on a single-machine component",
                    local_peak=len(comp) ** 2,
                    total_peak=sub.num_edges,
                )
            else:
                res = ampc_min_cut(
                    sub,
                    eps=eps,
                    seed=seed + 31 * iterations,
                    max_copies=max_copies,
                )
                cut = res.cut
                comp_ledger = res.ledger
            sibling_ledgers.append(comp_ledger)
            if cut.weight < best_weight:
                best_weight = cut.weight
                best_edges = tuple(
                    (u, v)
                    for u, v, _ in sub.edges()
                    if (u in cut.side) != (v in cut.side)
                )
        if best_edges is None:
            raise ValueError(
                f"cannot split into {k} parts: ran out of divisible components"
            )
        ledger.absorb_parallel(
            sibling_ledgers,
            f"APX-SPLIT iteration {iterations}: min cut per component",
        )
        ledger.charge(
            1,
            "APX-SPLIT lines 5-6: select lightest component cut, extend D",
            local_peak=4,
            total_peak=len(best_edges),
        )
        removed.append(best_edges)
        working = working.without_edges(best_edges)

    parts = [frozenset(c) for c in working.components()]
    # More than k components can appear when a cut splits a component
    # into 3+ pieces; merge the smallest back to exactly k for the
    # standard objective (never increases the weight).
    parts.sort(key=len)
    while len(parts) > k:
        a = parts.pop(0)
        b = parts.pop(0)
        parts.append(a | b)
        parts.sort(key=len)
    kcut = KCut.of(graph, parts)
    return KCutResult(
        kcut=kcut,
        cut_edge_sets=tuple(removed),
        ledger=ledger,
        iterations=iterations,
    )


def boost_kcut(
    graph: Graph,
    k: int,
    *,
    kernel: KCutKernel | None = None,
    eps: float = 0.5,
    trials: int = 1,
    seed: int = 0,
    max_copies: int = 2,
    exact_below: int = 16,
    run: TrialRunner | None = None,
    tracer: Tracer = NULL_TRACER,
) -> KCutResult:
    """Boosted APX-SPLIT (trials through ``run``, default in process) on
    ``graph``, or on a reducing ``kernel`` with the winner lifted back."""
    reduced = kernel is not None and kernel.reduced
    result = boost(
        run or partial(run_in_process, apx_split_kcut),
        dict(graph=kernel.graph if reduced else graph, k=k, eps=eps,
             max_copies=max_copies, exact_below=exact_below),
        trials=trials,
        seed=seed,
        label=f"APX-SPLIT boosting over {trials} parallel trials",
    )
    if reduced:
        with tracer.span("lift"):
            result.kcut = kernel.lift(result.kcut.parts)
    if kernel is not None:
        result.kernel_stats = kernel.stats()
    return result
