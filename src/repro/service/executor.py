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

import hashlib
import pickle
import signal
import threading
from collections import OrderedDict
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
#
# The parent pickles the graph ONCE per batch and ships the same bytes
# to every future (re-pickling a ``bytes`` is a memcpy, re-pickling a
# Graph is an object walk); each worker unpickles a given graph once
# and memoises it by digest, so a batch costs O(1) (de)serialisations
# per process instead of O(trials).
# ----------------------------------------------------------------------
_GRAPH_MEMO: OrderedDict[str, Graph] = OrderedDict()
_GRAPH_MEMO_CAPACITY = 4


def _resolve_graph(ref) -> Graph:
    if isinstance(ref, Graph):
        return ref
    digest, blob = ref
    graph = _GRAPH_MEMO.get(digest)
    if graph is None:
        graph = pickle.loads(blob)
        _GRAPH_MEMO[digest] = graph
        while len(_GRAPH_MEMO) > _GRAPH_MEMO_CAPACITY:
            _GRAPH_MEMO.popitem(last=False)
    else:
        _GRAPH_MEMO.move_to_end(digest)
    return graph


def _mincut_trial(ref, eps: float, seed: int) -> MinCutResult:
    return ampc_min_cut(_resolve_graph(ref), eps=eps, seed=seed)


def _kcut_trial(ref, k: int, eps: float, seed: int) -> KCutResult:
    return apx_split_kcut(_resolve_graph(ref), k, eps=eps, seed=seed)


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
        self._ref_memo: OrderedDict[int, tuple[Graph, tuple[str, bytes]]] = (
            OrderedDict()
        )
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

    def _graph_ref(self, graph: Graph, trials: int):
        """The graph itself (serial) or one (digest, pickle) pair (pool).

        Serial batches — one worker *or* one trial — never touch the
        pool (see :meth:`_run_batch`), so they get the object through
        with zero serialization.  For pool batches the pair is memoised
        per graph *object* (the memo holds a strong reference, so
        ``id`` stays valid), sparing a warm server the O(n+m) re-pickle
        on every repeated query over a resident graph.  Object identity
        is a sound cache key only while the object's content is fixed,
        so owners must call :meth:`forget` when they evict a graph *or
        mutate it in place* (the serving layer's ``/mutate`` path does,
        in :meth:`repro.service.service.CutService.absorb_mutation`).
        """
        if self.workers == 1 or trials == 1:
            return graph
        memo_key = id(graph)
        with self._lock:
            entry = self._ref_memo.get(memo_key)
            if entry is not None and entry[0] is graph:
                self._ref_memo.move_to_end(memo_key)
                return entry[1]
        blob = pickle.dumps(graph, pickle.HIGHEST_PROTOCOL)
        ref = (hashlib.sha1(blob).hexdigest(), blob)
        with self._lock:
            self._ref_memo[memo_key] = (graph, ref)
            while len(self._ref_memo) > _GRAPH_MEMO_CAPACITY:
                self._ref_memo.popitem(last=False)
        return ref

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
        seeds = trial_seeds(seed, trials)
        ref = self._graph_ref(graph, trials)
        results: list[MinCutResult] = self._run_batch(
            _mincut_trial,
            [(ref, eps, s) for s in seeds],
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
        seeds = trial_seeds(seed, trials)
        ref = self._graph_ref(graph, trials)
        results: list[KCutResult] = self._run_batch(
            _kcut_trial,
            [(ref, k, eps, s) for s in seeds],
        )
        if trials == 1:
            return results[0]
        return _best_of(
            results, f"APX-SPLIT boosting over {trials} parallel trials"
        )

    def forget(self, graph: Graph) -> None:
        """Drop the pickled-blob memo for ``graph`` (owner evicted it).

        Without this a ``store_capacity``-bounded server would keep up
        to ``_GRAPH_MEMO_CAPACITY`` evicted graphs (and their blobs)
        pinned in the parent process.
        """
        with self._lock:
            self._ref_memo.pop(id(graph), None)

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
