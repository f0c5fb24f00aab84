"""TrialExecutor — a deterministic process pool for boosting trials.

Boosting (seed schedule, trial-count check, best-of, ledger merge) lives
once, in :mod:`repro.core.boost`.  Trials share nothing, so the service
hands the booster a trial runner backed by a ``concurrent.futures``
process pool — the engineering move Henzinger et al.'s practical
min-cut study makes with shared-memory parallel Karger trials.  This
module owns only that pool: its lazy start, :meth:`TrialExecutor.run`
(futures collected in submission order, never ``as_completed``), the
``executor.fanout`` span and the ``executor.*`` counters.  Its served
trials resolve ``ampc_min_cut``/``apx_split_kcut`` through this
module's globals, so a profiler can wrap the served trials alone.

Any worker count gives the library's answer, bit for bit:

>>> from functools import partial
>>> from repro.core import ampc_min_cut_boosted, boost_min_cut
>>> from repro.workloads import planted_cut
>>> g = planted_cut(24, seed=3).graph
>>> with TrialExecutor(workers=2) as ex:
...     served = boost_min_cut(g, trials=2, seed=5,
...                            run=partial(ex.run, mincut_trial))
>>> library = ampc_min_cut_boosted(g, trials=2, seed=5)
>>> (served.cut, served.ledger.rounds) == (library.cut, library.ledger.rounds)
True
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Callable

from ..core import ampc_min_cut, apx_split_kcut
from ..obs.metrics import MetricsRegistry, MetricsScope
from ..obs.tracing import NULL_TRACER, Tracer


# Served trials: module-level so the process pool can pickle them; a
# pooled trial ships the graph itself, well under 1% of one trial.
def mincut_trial(**params):
    return ampc_min_cut(**params)


def kcut_trial(**params):
    return apx_split_kcut(**params)


def _worker_init() -> None:
    # Ctrl-C on `repro-cut serve` hits the whole foreground process
    # group; workers must leave SIGINT to the parent (whose pool
    # shutdown ends them) or they spew KeyboardInterrupt tracebacks.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class TrialExecutor:
    """Runs independent boosting trials in-process or on a process pool.

    ``workers=1`` (default) executes in-process with zero overhead;
    ``workers>1`` lazily spins up a ``ProcessPoolExecutor`` that is
    reused across queries until :meth:`shutdown`.  Usable as a context
    manager.

    The pool is started with ``spawn``, like the shard tier: it starts
    lazily from a request thread, and a forked worker would inherit any
    lock another thread holds at that moment (a main thread blocked in
    ``sys.stdin.read()`` holds stdin's, and the forked worker hangs
    closing stdin).
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

    # ------------------------------------------------------------------
    def run(self, trial: Callable, trials: list[dict]) -> list:
        """Run ``trial(**kwargs)`` per trial, results in input order.

        Bound to a trial (``partial(executor.run, mincut_trial)``) this
        is a :data:`repro.core.boost.TrialRunner`.  One trial, or one
        worker, runs in-process: nothing is pickled and no pool starts.
        """
        self._batches.inc()
        self._trials_run.inc(len(trials))
        pooled = self.workers > 1 and len(trials) > 1
        with self._tracer.span("executor.fanout") as sp:
            if sp:
                sp.set(trials=len(trials), workers=self.workers, pooled=pooled)
            if not pooled:
                return [trial(**kwargs) for kwargs in trials]
            pool = self._ensure_pool()
            futures = [pool.submit(trial, **kwargs) for kwargs in trials]
            # submission order, not completion
            return [f.result() for f in futures]

    def _ensure_pool(self) -> Executor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("spawn"),
                    initializer=_worker_init,
                )
            return self._pool

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            pool_live = self._pool is not None
        return {
            "workers": self.workers,
            "pool_live": pool_live,
            "batches": self._batches.value,
            "trials_run": self._trials_run.value,
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
