"""The AMPC round executor.

:class:`AMPCRuntime` owns the hash-table chain and the ledger.  One call
to :meth:`AMPCRuntime.round` executes a full synchronous round:

1. every machine program runs to completion with adaptive read access
   to an **immutable snapshot** of the previous table.  How the
   machines execute on the host — sequentially, or (for columnar
   round specs) partitioned over a persistent shared-memory worker
   pool — is delegated to a pluggable
   :class:`~repro.ampc.backends.RoundBackend`; the model
   forbids intra-round machine-to-machine communication, so every
   backend is observationally equivalent (and differentially tested to
   be bit-identical) to the serial reference;
2. buffered writes are merged into the next table canonically by
   machine index (:func:`~repro.ampc.dht.merge_writes`); conflicting
   writes to the same key are resolved by last-writer-wins unless a
   ``combiner`` is supplied (e.g. ``min`` for reduce trees) — either
   way the merged table never depends on which machine finished first;
3. round counters and memory high-water marks land in the ledger,
   identically across backends.

Programs are dispatched as ``(program, payload)`` pairs; the payload is
the machine's "incoming message" for the round and is charged against
its local memory.

Backend selection: pass ``backend=`` (a name or a live
:class:`~repro.ampc.backends.RoundBackend`), set
:attr:`AMPCConfig.backend`, or export ``AMPC_BACKEND``; the default is
the serial reference.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .backends import RoundBackend, resolve_backend
from .config import AMPCConfig
from .dht import ColumnTable, DHTChain, HashTable, merge_writes
from .ledger import RoundLedger
from .machine import MachineContext

MachineProgram = Callable[[MachineContext], None]


class AMPCRuntime:
    """Executes machine programs round by round against the DHT chain."""

    def __init__(
        self,
        config: AMPCConfig,
        ledger: RoundLedger | None = None,
        *,
        num_shards: int = 16,
        backend: str | RoundBackend | None = None,
    ):
        self.config = config
        self.ledger = ledger if ledger is not None else RoundLedger()
        self.chain = DHTChain(config.total_space_words, num_shards=num_shards)
        self.backend = resolve_backend(
            backend, config_backend=getattr(config, "backend", None)
        )
        self._rounds_run = 0

    # ------------------------------------------------------------------
    @property
    def rounds_run(self) -> int:
        return self._rounds_run

    @property
    def table(self) -> HashTable:
        """The currently readable hash table."""
        return self.chain.current

    def seed(self, items: Iterable[tuple[Any, Any]]) -> None:
        """Load the input into ``H_0``."""
        self.chain.seed(items)

    def seed_columns(
        self, keys: Any, values: Any, value_dtype: Any = np.int64
    ) -> None:
        """Load packed-int64 input columns into a columnar ``H_0``."""
        table = ColumnTable("H0", value_dtype=value_dtype)
        table.put_many(keys, values)
        self.chain.seed_table(table)

    # ------------------------------------------------------------------
    def round(
        self,
        programs: Sequence[tuple[MachineProgram, Any]],
        reason: str,
        *,
        combiner: Callable[[Any, Any], Any] | None = None,
        carry_forward: bool = False,
    ) -> None:
        """Run one synchronous round.

        Parameters
        ----------
        programs:
            ``(program, payload)`` pairs, one per virtual machine.  The
            number of virtual machines may exceed ``config.num_machines``;
            the model allows that by time-multiplexing, which does not
            change the round count.
        reason:
            Label for the ledger entry.
        combiner:
            Optional associative merge for writes hitting the same key.
        carry_forward:
            When True, keys of the previous table that no program
            overwrote are copied into the next table.  This models the
            standard "re-emit your state" idiom without forcing every
            program to spell it out.
        """
        readable = self.chain.current
        snapshot = readable.snapshot()
        next_table = self.chain.make_next()

        results = self.backend.run_round(
            list(programs), snapshot, self.config.local_memory_words
        )

        local_peak = 0
        queries = 0
        for res in results:  # machine-index order, whatever ran when
            local_peak = max(local_peak, res.peak_words)
            queries += res.reads
        merge_writes(next_table, (res.writes for res in results), combiner)

        if carry_forward:
            for key, value in readable.items():
                if not next_table.contains(key):
                    next_table.put(key, value)

        self.chain.advance(next_table)
        self._rounds_run += 1
        self.ledger.measure(
            1,
            reason,
            local_peak=local_peak,
            total_peak=self.chain.high_water,
            queries=queries,
        )

    # ------------------------------------------------------------------
    def column_round(
        self,
        op: str,
        params: dict,
        n_machines: int,
        reason: str,
        *,
        combiner: str | None = None,
        carry_forward: bool = False,
    ) -> None:
        """Run one synchronous round over columnar state.

        The columnar twin of :meth:`round`: instead of closures, the
        round is a picklable spec — an op name registered in
        :mod:`repro.ampc.columnar` plus ``params`` — executed over the
        previous table's two array columns by a columnar-capable
        backend (``backend.supports_columnar``).  Merge, carry-forward,
        chain advancement and ledger accounting follow the exact same
        canonical rules as the object path; only the representation of
        machine state changes.
        """
        readable = self.chain.current
        snapshot = readable.snapshot()
        keys, values = snapshot.columns()
        next_table = self.chain.make_next_column(readable.value_dtype)

        results = self.backend.run_column_round(
            op, params, n_machines, keys, values, self.config.local_memory_words
        )

        local_peak = 0
        queries = 0
        for res in results:  # machine-index (lo) order
            local_peak = max(local_peak, res.peak_words)
            queries += res.reads
        next_table.merge_columns(
            [(res.write_keys, res.write_values) for res in results], combiner
        )

        if carry_forward:
            next_table.carry_forward(snapshot)

        self.chain.advance(next_table)
        self._rounds_run += 1
        self.ledger.measure(
            1,
            reason,
            local_peak=min(local_peak, self.config.local_memory_words),
            total_peak=self.chain.high_water,
            queries=queries,
        )

    # ------------------------------------------------------------------
    def run_plan(
        self,
        plan: Iterable[tuple[Sequence[tuple[MachineProgram, Any]], str]],
        *,
        combiner: Callable[[Any, Any], Any] | None = None,
    ) -> None:
        """Execute a sequence of rounds."""
        for programs, reason in plan:
            self.round(programs, reason, combiner=combiner)

    def collect(self, prefix: str | None = None) -> dict[Any, Any]:
        """Gather results out of the final table (host-side, not a round).

        With ``prefix`` set, only string/tuple keys whose first component
        equals the prefix are returned, with the prefix stripped from
        tuple keys.
        """
        out: dict[Any, Any] = {}
        for key, value in self.table.items():
            if prefix is None:
                out[key] = value
            elif isinstance(key, tuple) and len(key) >= 2 and key[0] == prefix:
                rest = key[1] if len(key) == 2 else key[1:]
                out[rest] = value
        return out
