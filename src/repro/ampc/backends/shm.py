"""Shared-memory round backend: persistent spawn pool, zero-copy snapshots.

Machine programs on the object path are closures and cannot cross a
process boundary, so this backend changes *what* crosses it: instead
of closures it ships **columnar round specs** — an op name from
:mod:`repro.ampc.columnar` plus a small picklable params dict — to a
pool of workers started **once** with the ``spawn`` context and reused
for every subsequent round (the warm path).  Object-path rounds run
inline, exactly as under the serial reference.

The round snapshot is two numpy columns (int64 keys, int64/float64
values).  The parent copies them once into a
``multiprocessing.shared_memory`` segment; each worker attaches the
segment and builds read-only array views directly over it — zero
per-worker copy, zero pickling of round state.  Only the (small) write
columns come back over the pipes.

Failure semantics match the backend contract: the exception of the
lowest-indexed failing machine slice propagates.  A worker that dies
mid-round surfaces as a :class:`~repro.ampc.errors.ProtocolError` and
poisons the pool, which is rebuilt on the next round.

Observability: the module-level :data:`METRICS` registry (folded into
``GET /metrics`` by the serving tier) counts segment attaches, rounds
served warm vs. inline, and bytes shared per round — the counters that
prove the pool actually persists (``ampc.pool.warm_rounds > 0`` after a
multi-round plan) and that snapshots travel by page, not by pickle.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from multiprocessing import shared_memory
from typing import Any, Sequence

import numpy as np

from ...obs.metrics import MetricsRegistry
from ..columnar import ColumnSliceResult, execute_column_slice
from ..errors import ProtocolError
from .base import MachineProgram, MachineResult, Readable, RoundBackend
from .serial import SerialBackend

#: process-wide metrics for the shm tier; eagerly registered so the
#: ``/metrics`` payload always carries the keys, even before any round.
METRICS = MetricsRegistry()
for _name in (
    "ampc.shm.attach",
    "ampc.shm.rounds",
    "ampc.shm.inline_rounds",
    "ampc.shm.bytes_shared",
    "ampc.pool.warm_rounds",
    "ampc.pool.cold_starts",
    "ampc.pool.workers_started",
):
    METRICS.counter(_name)
del _name


def _slices(n: int, workers: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``workers`` contiguous, balanced slices."""
    workers = min(workers, n)
    base, extra = divmod(n, workers)
    bounds = []
    lo = 0
    for w in range(workers):
        hi = lo + base + (1 if w < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without registering it for cleanup.

    The parent owns the segment lifecycle (it unlinks after the round);
    a worker registering the same name with its resource tracker would
    double-unlink and warn at exit.  Python 3.13 grew ``track=False``
    for exactly this; older versions need the manual unregister.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Pre-3.13: suppress tracker registration for the duration of
        # the attach.  (Unregistering *after* would race other workers
        # of the same round — the tracker's name set collapses their
        # duplicate registrations, and the extra unregisters then spam
        # KeyError tracebacks in the tracker process.)
        from multiprocessing import resource_tracker

        orig_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig_register


def _pool_worker_main(conn) -> None:
    """Worker loop: attach snapshot, execute a machine slice, report."""
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            break
        if msg is None:
            break
        shm_name, n_keys, vdtype, op, params, lo, hi = msg
        seg = None
        keys = values = None
        try:
            if shm_name is None:
                keys = np.empty(0, dtype=np.int64)
                values = np.empty(0, dtype=np.dtype(vdtype))
            else:
                seg = _attach_segment(shm_name)
                keys = np.ndarray((n_keys,), dtype=np.int64, buffer=seg.buf)
                values = np.ndarray(
                    (n_keys,),
                    dtype=np.dtype(vdtype),
                    buffer=seg.buf,
                    offset=keys.nbytes,
                )
                keys.flags.writeable = False
                values.flags.writeable = False
            wk, wv, peak, reads = execute_column_slice(
                op, keys, values, params, lo, hi
            )
            # Copy before sending: the views must not outlive the segment.
            conn.send(("ok", lo, hi, np.array(wk), np.array(wv), peak, reads))
        except BaseException as exc:  # noqa: BLE001 - reported to parent
            try:
                conn.send(("err", lo, exc))
            except Exception:
                conn.send(
                    ("err", lo, ProtocolError(f"unpicklable worker error: {exc!r}"))
                )
        finally:
            keys = values = None
            if seg is not None:
                try:
                    seg.close()
                except BufferError:  # pragma: no cover - stray view ref
                    pass
    conn.close()


class ShmBackend(RoundBackend):
    """Persistent spawn-safe worker pool over shared-memory snapshots."""

    name = "shm"
    supports_columnar = True

    def __init__(self, workers: int | None = None, *, min_machines: int = 4):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers or (os.cpu_count() or 1)
        #: columnar rounds with fewer machines than this run inline —
        #: pipe latency cannot be amortised.  Identical either way.
        self.min_machines = max(1, min_machines)
        self._serial = SerialBackend()
        self._pool: list[tuple[Any, Any]] | None = None  # (proc, conn)
        self._lock = threading.Lock()
        # A forked child (TrialExecutor's process pool) inherits this
        # object but not the pool processes; drop the dead handles so
        # the child lazily spawns its own pool if it ever needs one.
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._drop_pool_after_fork)

    def _drop_pool_after_fork(self) -> None:
        pool, self._pool = self._pool, None
        self._lock = threading.Lock()  # inherited lock state is undefined
        if pool:
            for _proc, conn in pool:
                try:
                    conn.close()
                except Exception:
                    pass

    def _ensure_pool(self) -> tuple[list[tuple[Any, Any]], bool]:
        """Return ``(pool, was_warm)``, spawning workers on first use."""
        with self._lock:
            if self._pool is not None:
                return self._pool, True
            ctx = multiprocessing.get_context("spawn")
            pool = []
            for _ in range(self.workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_pool_worker_main, args=(child_conn,), daemon=True
                )
                proc.start()
                child_conn.close()
                pool.append((proc, parent_conn))
            self._pool = pool
            METRICS.counter("ampc.pool.cold_starts").inc()
            METRICS.counter("ampc.pool.workers_started").inc(len(pool))
            return pool, False

    def _poison_pool(self) -> None:
        """Tear down a pool a worker died in; next round respawns."""
        with self._lock:
            pool, self._pool = self._pool, None
        for proc, conn in pool or []:
            try:
                conn.close()
            except Exception:
                pass
            proc.terminate()
            proc.join(timeout=5)

    # ------------------------------------------------------------------
    # object path: machine programs are closures and cannot reach a
    # spawn pool; run them in-process.  This keeps the shm backend a
    # complete RoundBackend — primitives without a columnar spec (and
    # mixed plans) still execute, observationally identical to serial.
    # ------------------------------------------------------------------
    def run_round(
        self,
        programs: Sequence[tuple[MachineProgram, Any]],
        readable: Readable,
        local_limit: int,
    ) -> list[MachineResult]:
        return self._serial.run_round(programs, readable, local_limit)

    def _run_inline(
        self, op, params, bounds, keys, values
    ) -> list[ColumnSliceResult]:
        METRICS.counter("ampc.shm.inline_rounds").inc()
        results = []
        for lo, hi in bounds:
            wk, wv, peak, reads = execute_column_slice(
                op, keys, values, params, lo, hi
            )
            results.append(ColumnSliceResult(lo, hi, wk, wv, peak, reads))
        return results

    def run_column_round(
        self,
        op: str,
        params: dict,
        n_machines: int,
        keys: np.ndarray,
        values: np.ndarray,
        local_limit: int,
    ) -> list[ColumnSliceResult]:
        METRICS.counter("ampc.shm.rounds").inc()
        n = max(0, int(n_machines))
        bounds = _slices(n, self.workers) if n else []
        if n < self.min_machines or min(self.workers, n) <= 1:
            return self._run_inline(op, params, bounds, keys, values)

        pool, was_warm = self._ensure_pool()
        nbytes = keys.nbytes + values.nbytes
        seg = None
        shm_name = None
        if nbytes:
            seg = shared_memory.SharedMemory(create=True, size=nbytes)
            kv = np.ndarray(keys.shape, dtype=np.int64, buffer=seg.buf)
            vv = np.ndarray(
                values.shape, dtype=values.dtype, buffer=seg.buf, offset=keys.nbytes
            )
            kv[:] = keys
            vv[:] = values
            del kv, vv
            shm_name = seg.name
            METRICS.counter("ampc.shm.bytes_shared").inc(nbytes)
        if was_warm:
            METRICS.counter("ampc.pool.warm_rounds").inc()

        vdtype = values.dtype.str
        active = []
        try:
            for (proc, conn), (lo, hi) in zip(pool, bounds):
                conn.send((shm_name, int(keys.size), vdtype, op, params, lo, hi))
                active.append((proc, conn, lo, hi))
            if shm_name is not None:
                METRICS.counter("ampc.shm.attach").inc(len(active))

            slices: list[ColumnSliceResult] = []
            first_error: tuple[int, BaseException] | None = None
            poisoned = False
            for proc, conn, lo, hi in active:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = (
                        "err",
                        lo,
                        ProtocolError(
                            f"shm pool worker for machines [{lo}, {hi}) died "
                            "without reporting results"
                        ),
                    )
                    poisoned = True
                if message[0] == "ok":
                    _, mlo, mhi, wk, wv, peak, reads = message
                    slices.append(ColumnSliceResult(mlo, mhi, wk, wv, peak, reads))
                else:
                    _, machine_id, exc = message
                    if first_error is None or machine_id < first_error[0]:
                        first_error = (machine_id, exc)
            if poisoned:
                self._poison_pool()
            if first_error is not None:
                raise first_error[1]
            slices.sort(key=lambda r: r.lo)
            return slices
        finally:
            if seg is not None:
                seg.close()
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        for proc, conn in pool or []:
            try:
                conn.send(None)
            except Exception:
                pass
            try:
                conn.close()
            except Exception:
                pass
        for proc, _conn in pool or []:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
