"""AMPC model substrate: configuration, DHT chain, runtime, ledger.

The Adaptive Massively Parallel Computation model (Behnezhad et al.,
SPAA 2019) extends MPC with mid-round adaptive read access to a
distributed hash table.  This package simulates it with exact round,
local-memory and total-space accounting; :mod:`repro.ampc.ledger`
states what is executed (measured rounds) and what is charged.

:class:`~repro.ampc.runtime.AMPCRuntime` is the one round executor,
and it runs every round in-process.  A round is either a list of
machine programs (the object path) or a columnar round spec from
:mod:`repro.ampc.columnar` over array snapshots.  The primitives take
the columnar path whenever their input fits its contract (plain ints,
or finite floats for sort) and keep the object path as the reference
for everything else; both paths enforce the same local-memory budget
and produce the same outputs and round structure, which the
differential harnesses in ``tests/test_columnar_equivalence.py`` and
``tests/test_backend_equivalence.py`` enforce.

Where this package sits relative to the graph core, the kernelization
pipeline and the serving layer is mapped in ``docs/ARCHITECTURE.md``.
"""

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
    "MemoryLimitExceeded",
    "MissingKeyError",
    "RoundLedger",
    "TableSnapshot",
    "TotalSpaceExceeded",
    "merge_writes",
    "word_size",
]
