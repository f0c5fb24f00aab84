"""Fan-in reduce trees and broadcast.

``ampc_reduce`` folds ``n`` values with an associative operator using a
tree of fan-in ``O(n^eps)``; the tree height — and hence the round
count — is ``O(1/eps)``.  ``ampc_broadcast`` is the one-round dual:
every machine adaptively reads the same key (adaptive reads make
broadcast free in AMPC, unlike MPC where it costs a spreading tree).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..config import AMPCConfig
from ..ledger import RoundLedger
from ..dht import word_size
from ..machine import MachineContext
from ..runtime import AMPCRuntime
from .distribute import chunk_size_for, seed_chunks


def ampc_reduce(
    config: AMPCConfig,
    values: Sequence[Any],
    op: Callable[[Any, Any], Any],
    *,
    ledger: RoundLedger | None = None,
) -> Any:
    """Reduce ``values`` with associative ``op`` in ``O(1/eps)`` rounds."""
    if len(values) == 0:
        raise ValueError("reduce of empty sequence")
    runtime = AMPCRuntime(config, ledger=ledger)
    n_chunks, _ = seed_chunks(runtime, "x", values)
    capacity = max(2, chunk_size_for(config))

    # Round 1: fold each chunk locally.
    def fold_chunk(ctx: MachineContext) -> None:
        j = ctx.payload
        chunk = ctx.read(("x", "chunk", j))
        words = word_size(chunk)
        ctx.hold(words)
        acc = chunk[0]
        for v in chunk[1:]:
            acc = op(acc, v)
        ctx.write(("acc", 0, j), acc)
        ctx.release(words)

    runtime.round(
        [(fold_chunk, j) for j in range(n_chunks)],
        "reduce: chunk fold",
        carry_forward=True,
    )

    # Upward fan-in rounds.
    level, count = 0, n_chunks
    while count > 1:
        groups = (count + capacity - 1) // capacity

        def fold_group(ctx: MachineContext, _level: int = level, _count: int = count) -> None:
            g = ctx.payload
            acc = None
            for child in range(g * capacity, min((g + 1) * capacity, _count)):
                v = ctx.read(("acc", _level, child))
                acc = v if acc is None else op(acc, v)
            ctx.write(("acc", _level + 1, g), acc)

        runtime.round(
            [(fold_group, g) for g in range(groups)],
            f"reduce: fan-in level {level + 1}",
            carry_forward=True,
        )
        level, count = level + 1, groups

    return runtime.table.get(("acc", level, 0))


def ampc_broadcast(
    config: AMPCConfig,
    value: Any,
    n_receivers: int,
    *,
    ledger: RoundLedger | None = None,
) -> list[Any]:
    """Broadcast ``value`` to ``n_receivers`` machines in one round.

    Returns the list of received values (all equal) as observed by the
    receivers — used by tests to confirm the adaptive-read broadcast
    pattern works and costs exactly one round.

    Receivers prove receipt by re-emitting the value into the next
    table, so the round's accounting includes ``n_receivers`` copies of
    the value in total space (and the value's words against each
    receiver's local memory).  That is the honest cost of observing a
    broadcast's delivery through the DHT — and it keeps the primitive
    faithful to the model, where machines share nothing but the DHT and
    host-side mutation from machine programs would be invisible.
    """
    runtime = AMPCRuntime(config, ledger=ledger)
    runtime.seed([(("bcast",), value)])

    # Receivers re-emit what they read; the host collects the emissions
    # from the table.  (Everything flows through the DHT — in the model
    # a machine mutating host state it closed over would be invisible.)
    def receive(ctx: MachineContext) -> None:
        i = ctx.payload
        got = ctx.read(("bcast",))
        ctx.write(("recv", i), got)

    runtime.round(
        [(receive, i) for i in range(n_receivers)],
        "broadcast: adaptive read",
        carry_forward=True,
    )
    return [runtime.table.get(("recv", i)) for i in range(n_receivers)]
