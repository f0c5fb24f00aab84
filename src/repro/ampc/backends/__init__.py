"""Pluggable round-execution backends for the AMPC runtime.

The AMPC model is defined by machines running *in parallel* against a
shared DHT each round.  :class:`~repro.ampc.runtime.AMPCRuntime`
delegates round execution to a :class:`RoundBackend`:

===========================  ===========================================
:class:`SerialBackend`       machines run one by one in-process — the
                             reference semantics the shm backend is
                             differentially tested against
:class:`ShmBackend`          a **persistent spawn-context pool** fed
                             picklable columnar round specs over
                             zero-copy ``multiprocessing.shared_memory``
                             snapshots; object-path rounds run inline
===========================  ===========================================

Selection (first match wins): an explicit ``backend=`` argument to
``AMPCRuntime``, the :attr:`repro.ampc.AMPCConfig.backend` field, the
``AMPC_BACKEND`` environment variable, then ``"serial"``.  String names
resolve to process-wide shared instances so the thousands of short-lived
runtimes the primitives create all reuse one pool.
"""

from __future__ import annotations

import os
import threading

from .base import MachineResult, RoundBackend, execute_machine
from .serial import SerialBackend
from .shm import ShmBackend

#: name -> constructor for the built-in backends (config / env spellings)
BACKENDS = {
    "serial": SerialBackend,
    "shm": ShmBackend,
}

_shared: dict[str, RoundBackend] = {}
_shared_lock = threading.Lock()


def available_backends() -> list[str]:
    """The selectable backend names, reference first."""
    return list(BACKENDS)


def parse_backend_spec(spec: str) -> tuple[str, int | None]:
    """Validate a ``name[:workers]`` spec; returns ``(name, workers)``.

    Raises ``ValueError`` for unknown names, non-positive or malformed
    worker counts, and worker counts on ``serial`` (which has none).
    The single parser behind :func:`resolve_backend`, so a bad
    ``AMPC_BACKEND`` or :attr:`AMPCConfig.backend` fails the same way.
    """
    key = spec.strip().lower()
    name, _, workers_part = key.partition(":")
    workers: int | None = None
    if workers_part:
        try:
            workers = int(workers_part)
        except ValueError:
            raise ValueError(f"bad worker count in AMPC backend spec {spec!r}")
        if workers < 1:
            raise ValueError(f"worker count must be >= 1 in {spec!r}")
    if name not in BACKENDS or (workers is not None and name == "serial"):
        raise ValueError(
            f"unknown AMPC backend {spec!r}; available: {available_backends()} "
            "(shm optionally takes ':<workers>')"
        )
    return name, workers


def resolve_backend(
    spec: str | RoundBackend | None = None,
    *,
    config_backend: str | None = None,
) -> RoundBackend:
    """Turn a backend spec into a live backend instance.

    ``spec`` may be a :class:`RoundBackend` (used as-is), a name, or
    ``None`` — in which case ``config_backend`` and then the
    ``AMPC_BACKEND`` environment variable are consulted before falling
    back to the serial reference.  ``shm`` accepts an explicit worker
    count as ``"shm:4"`` (without one, the host's CPU count decides).
    Named backends are shared process-wide, one instance per distinct
    spec.
    """
    if isinstance(spec, RoundBackend):
        return spec
    raw = spec or config_backend or os.environ.get("AMPC_BACKEND") or "serial"
    name, workers = parse_backend_spec(raw)
    key = raw.strip().lower()
    with _shared_lock:
        backend = _shared.get(key)
        if backend is None:
            backend = BACKENDS[name]() if workers is None else BACKENDS[name](workers)
            _shared[key] = backend
        return backend


def shutdown_shared_backends() -> None:
    """Close and drop the shared named backends (tests / clean exits)."""
    with _shared_lock:
        backends = list(_shared.values())
        _shared.clear()
    for backend in backends:
        backend.close()


__all__ = [
    "BACKENDS",
    "MachineResult",
    "RoundBackend",
    "SerialBackend",
    "ShmBackend",
    "available_backends",
    "execute_machine",
    "parse_backend_spec",
    "resolve_backend",
    "shutdown_shared_backends",
]
