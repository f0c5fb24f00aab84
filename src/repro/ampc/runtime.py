"""The AMPC round executor.

:class:`AMPCRuntime` owns the hash-table chain and the ledger, and runs
every round in-process.  One call to :meth:`AMPCRuntime.round` (object
programs) or :meth:`AMPCRuntime.column_round` (columnar round specs)
executes a full synchronous round:

1. every machine runs to completion with adaptive read access to an
   **immutable snapshot** of the previous table (a
   :class:`~repro.ampc.dht.TableSnapshot` or
   :class:`~repro.ampc.dht.ColumnSnapshot`), so no machine can write
   the previous table or see another machine's writes mid-round.
   Object machines run one by one in index order; a columnar op runs
   all the round's machines in one vectorized call;
2. buffered writes are merged into the next table canonically by
   machine index (:func:`~repro.ampc.dht.merge_writes`,
   :meth:`~repro.ampc.dht.ColumnTable.merge_columns`); conflicting
   writes to the same key are resolved by last-writer-wins unless a
   ``combiner`` is supplied (e.g. ``min`` for reduce trees);
3. one shared epilogue carries unwritten keys forward (on request),
   advances the chain, and lands the round counter and memory
   high-water marks in the ledger.

Both paths enforce the same local-memory budget: an object machine
raises :class:`~repro.ampc.errors.MemoryLimitExceeded` from
:meth:`MachineContext.hold`, and a columnar round raises it when the
op's peak exceeds ``local_memory_words``.

Programs are dispatched as ``(program, payload)`` pairs; the payload is
the machine's "incoming message" for the round and is charged against
its local memory.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import columnar
from .config import AMPCConfig
from .dht import (
    ColumnSnapshot,
    ColumnTable,
    DHTChain,
    HashTable,
    TableSnapshot,
    merge_writes,
)
from .errors import MemoryLimitExceeded
from .ledger import RoundLedger
from .machine import MachineContext

MachineProgram = Callable[[MachineContext], None]


class AMPCRuntime:
    """Executes machine programs round by round against the DHT chain."""

    def __init__(self, config: AMPCConfig, ledger: RoundLedger | None = None):
        self.config = config
        self.ledger = ledger if ledger is not None else RoundLedger()
        self.chain = DHTChain(config.total_space_words)
        self._rounds_run = 0

    # ------------------------------------------------------------------
    @property
    def rounds_run(self) -> int:
        return self._rounds_run

    @property
    def table(self) -> HashTable | ColumnTable:
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
        snapshot = self.chain.current.snapshot()
        limit = self.config.local_memory_words

        local_peak = 0
        queries = 0
        write_lists = []
        for machine_id, (program, payload) in enumerate(programs):
            ctx = MachineContext(machine_id, snapshot, limit, payload=payload)
            program(ctx)
            local_peak = max(local_peak, ctx.peak_words)
            queries += ctx.reads
            write_lists.append(ctx.drain_writes())
        next_table = self.chain.make_next()
        merge_writes(next_table, write_lists, combiner)
        self._finish_round(
            snapshot, next_table, carry_forward, reason, local_peak, queries
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
        round is a spec — an op name registered in
        :mod:`repro.ampc.columnar` plus ``params`` — and the op runs
        all ``n_machines`` machines over the previous table's two array
        columns in one call.  Merge, carry-forward, chain advancement,
        ledger accounting and the local-memory check follow the same
        rules as the object path; only the representation of machine
        state changes.  An op reports only its largest machine's peak,
        so an over-budget round's :class:`MemoryLimitExceeded` names
        the op, not a machine index.
        """
        try:
            run = columnar.OPS[op]
        except KeyError:
            raise KeyError(f"unknown columnar op {op!r}") from None
        snapshot = self.chain.current.snapshot()
        keys, values = snapshot.columns()

        write_keys, write_values, local_peak, queries = (), (), 0, 0
        if n_machines > 0:
            write_keys, write_values, local_peak, queries = run(
                keys, values, params, int(n_machines)
            )
        limit = self.config.local_memory_words
        if local_peak > limit:
            raise MemoryLimitExceeded(local_peak, limit, op)

        next_table = self.chain.make_next_column(snapshot.value_dtype)
        next_table.merge_columns((write_keys, write_values), combiner)
        self._finish_round(
            snapshot, next_table, carry_forward, reason,
            int(local_peak), int(queries),
        )

    def _finish_round(
        self,
        snapshot: TableSnapshot | ColumnSnapshot,
        next_table: HashTable | ColumnTable,
        carry_forward: bool,
        reason: str,
        local_peak: int,
        queries: int,
    ) -> None:
        """The round epilogue both paths share: carry forward, advance
        the chain, count the round and record it in the ledger."""
        if carry_forward:
            next_table.carry_forward(snapshot)
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
