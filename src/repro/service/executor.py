"""TrialExecutor — deterministic fan-out of boosting trials.

Algorithm 1's w.h.p. guarantee comes from boosting: many independent
trials, best cut wins (:func:`repro.core.ampc_min_cut_boosted` runs
them in a Python loop).  The trials share nothing, so a serving layer
can fan them out over a ``concurrent.futures`` process pool — the
engineering move Henzinger et al.'s practical min-cut study makes with
shared-memory parallel Karger trials.

Determinism is the contract here: results must not depend on worker
count or completion order.  Achieved by

* deriving the per-trial seed from the trial *index* (the same
  ``seed + 7919 * t`` schedule the serial booster uses),
* collecting futures in submission order (never ``as_completed``),
* breaking weight ties by the earliest trial index — exactly the
  ``res.weight < best.weight`` rule of the serial loop,
* merging the per-trial ledgers with the model's parallel-group rule
  (:meth:`~repro.ampc.ledger.RoundLedger.absorb_parallel`, max rounds /
  summed total space), in trial order.

So ``workers=8`` returns bit-identical cut weights, sides, and ledger
aggregates to ``workers=1`` for the same seed list, and ``workers=1``
is bit-identical to ``ampc_min_cut_boosted`` itself.
"""

from __future__ import annotations

import signal
import threading
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Callable, Sequence

from ..ampc import RoundLedger
from ..core import (
    BOOST_SEED_STRIDE,
    ampc_min_cut,
    apx_split_kcut,
    default_boost_trials,
)
from ..core.kcut import KCutResult
from ..core.mincut import MinCutResult
from ..graph import Graph
from ..obs.metrics import MetricsRegistry, MetricsScope
from ..obs.tracing import NULL_TRACER, Tracer

#: re-exported under the serving layer's historical names; the single
#: source of truth is ``repro.core.mincut`` (shared with the booster)
SEED_STRIDE = BOOST_SEED_STRIDE
default_trials = default_boost_trials


def trial_seeds(seed: int, trials: int) -> list[int]:
    """The boosting seed schedule: ``seed + BOOST_SEED_STRIDE * t``.

    >>> trial_seeds(3, 4)
    [3, 7922, 15841, 23760]
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    return [seed + SEED_STRIDE * t for t in range(trials)]


# ----------------------------------------------------------------------
# Module-level trial kernels (must be picklable for the process pool).
# A pooled trial ships the graph itself: pickling it costs well under 1%
# of one trial.
# ----------------------------------------------------------------------
def _mincut_trial(graph: Graph, eps: float, seed: int) -> MinCutResult:
    return ampc_min_cut(graph, eps=eps, seed=seed)


def _kcut_trial(graph: Graph, k: int, eps: float, seed: int) -> KCutResult:
    return apx_split_kcut(graph, k, eps=eps, seed=seed)


def _best_of(results: list, label: str):
    """The lightest trial (first on ties), charged every trial's rounds
    as one parallel step."""
    best = min(results, key=lambda res: res.weight)
    combined = RoundLedger()
    combined.absorb_parallel([r.ledger for r in results], label)
    best.ledger = combined
    return best


def _worker_init() -> None:
    # Ctrl-C on `repro-cut serve` hits the whole foreground process
    # group; workers must leave SIGINT to the parent (whose pool
    # shutdown ends them) or they spew KeyboardInterrupt tracebacks.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class TrialExecutor:
    """Runs independent boosting trials serially or on a process pool.

    ``workers=1`` (default) executes in-process with zero overhead;
    ``workers>1`` lazily spins up a ``ProcessPoolExecutor`` that is
    reused across queries until :meth:`shutdown`.  Usable as a context
    manager.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        metrics: MetricsScope | None = None,
        tracer: Tracer = NULL_TRACER,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool: Executor | None = None
        self._lock = threading.Lock()
        if metrics is None:
            metrics = MetricsRegistry().scope("executor")
        self._trials_run = metrics.counter("trials_run")
        self._batches = metrics.counter("batches")
        self._tracer = tracer

    @property
    def trials_run(self) -> int:
        return self._trials_run.value

    @property
    def batches(self) -> int:
        return self._batches.value

    # ------------------------------------------------------------------
    def _run_batch(self, fn: Callable, arg_tuples: Sequence[tuple]) -> list:
        """Run ``fn(*args)`` for each tuple, preserving input order."""
        self._batches.inc()
        self._trials_run.inc(len(arg_tuples))
        pooled = self.workers > 1 and len(arg_tuples) > 1
        with self._tracer.span("executor.fanout") as sp:
            if sp:
                sp.set(
                    trials=len(arg_tuples),
                    workers=self.workers,
                    pooled=pooled,
                )
            if not pooled:
                return [fn(*args) for args in arg_tuples]
            pool = self._ensure_pool()
            futures = [pool.submit(fn, *args) for args in arg_tuples]
            # submission order, not completion
            return [f.result() for f in futures]

    def _ensure_pool(self) -> Executor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_worker_init
                )
            return self._pool

    # ------------------------------------------------------------------
    def run_mincut(
        self,
        graph: Graph,
        *,
        eps: float = 0.5,
        trials: int | None = None,
        seed: int = 0,
    ) -> MinCutResult:
        """Boosted Algorithm 1 over the pool; best trial wins.

        Matches ``ampc_min_cut_boosted(graph, eps=eps, trials=trials,
        seed=seed)`` bit for bit.
        """
        if trials is None:
            trials = default_trials(graph.num_vertices)
        results: list[MinCutResult] = self._run_batch(
            _mincut_trial,
            [(graph, eps, s) for s in trial_seeds(seed, trials)],
        )
        return _best_of(results, f"boosting over {trials} parallel trials")

    def run_kcut(
        self,
        graph: Graph,
        k: int,
        *,
        eps: float = 0.5,
        trials: int = 1,
        seed: int = 0,
    ) -> KCutResult:
        """Best APX-SPLIT run over ``trials`` independent seeds."""
        results: list[KCutResult] = self._run_batch(
            _kcut_trial,
            [(graph, k, eps, s) for s in trial_seeds(seed, trials)],
        )
        if trials == 1:
            return results[0]
        return _best_of(
            results, f"APX-SPLIT boosting over {trials} parallel trials"
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            pool_live = self._pool is not None
        return {
            "workers": self.workers,
            "pool_live": pool_live,
            "batches": self.batches,
            "trials_run": self.trials_run,
        }

    def shutdown(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "TrialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
