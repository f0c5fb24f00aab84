"""AMPC model substrate: configuration, DHT chain, runtime, ledger.

The Adaptive Massively Parallel Computation model (Behnezhad et al.,
SPAA 2019) extends MPC with mid-round adaptive read access to a
distributed hash table.  This package simulates it with exact round,
local-memory and total-space accounting; :mod:`repro.ampc.ledger`
states what is executed (measured rounds) and what is charged.

Rounds execute on a pluggable backend (:mod:`repro.ampc.backends`):
the serial reference, or the ``shm`` pool that runs columnar round
specs over shared-memory snapshots — selected per
:class:`~repro.ampc.config.AMPCConfig` (``backend=``), per runtime
(``AMPCRuntime(..., backend=...)``), or globally via the
``AMPC_BACKEND`` environment variable.  Backend choice never changes
observable results, ledger accounting, or traces; the differential
harness in ``tests/test_backend_equivalence.py`` enforces that.

Where this package sits relative to the graph core, the kernelization
pipeline and the serving layer is mapped in ``docs/ARCHITECTURE.md``.
"""

from .backends import (
    BACKENDS,
    MachineResult,
    RoundBackend,
    SerialBackend,
    ShmBackend,
    available_backends,
    resolve_backend,
)
from .config import AMPCConfig, DEFAULT_EPS
from .dht import (
    ColumnSnapshot,
    ColumnTable,
    DHTChain,
    HashTable,
    TableSnapshot,
    merge_writes,
    word_size,
)
from .errors import (
    AMPCError,
    AMPCUsageError,
    MemoryLimitExceeded,
    MissingKeyError,
    ProtocolError,
    TotalSpaceExceeded,
)
from .ledger import LedgerEntry, RoundLedger
from .machine import MachineContext
from .runtime import AMPCRuntime
from .trace import (
    export_trace,
    render_phase_table,
    render_timeline,
    summarize_phases,
)

__all__ = [
    "AMPCConfig",
    "BACKENDS",
    "DEFAULT_EPS",
    "AMPCError",
    "AMPCRuntime",
    "AMPCUsageError",
    "ColumnSnapshot",
    "ColumnTable",
    "export_trace",
    "render_phase_table",
    "render_timeline",
    "summarize_phases",
    "DHTChain",
    "HashTable",
    "LedgerEntry",
    "MachineContext",
    "MachineResult",
    "MemoryLimitExceeded",
    "MissingKeyError",
    "ProtocolError",
    "RoundBackend",
    "RoundLedger",
    "SerialBackend",
    "ShmBackend",
    "TableSnapshot",
    "TotalSpaceExceeded",
    "available_backends",
    "merge_writes",
    "resolve_backend",
    "word_size",
]
