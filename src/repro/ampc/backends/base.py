"""The round-backend contract.

A *round backend* answers one question for the runtime: given the
round's ``(program, payload)`` pairs, an immutable snapshot of the
previous table, and the per-machine memory budget, produce one
:class:`MachineResult` per machine, **ordered by machine index**.  The
runtime does everything else — write merging (canonical, by machine
index, see :func:`repro.ampc.dht.merge_writes`), carry-forward, chain
advancement and ledger accounting — so observational equivalence across
backends reduces to three obligations every backend must meet:

1. each machine runs against the same immutable snapshot (machines
   cannot see each other mid-round — the model forbids it);
2. results come back in machine-index order, whatever order execution
   actually happened in;
3. when machines fail, the exception of the **lowest-indexed** failing
   machine propagates (matching the serial reference, which executes in
   index order and dies at the first failure).

``tests/test_backend_equivalence.py`` is the differential harness that
holds every backend to bit-identical outputs, round counts and trace
digests against :class:`~repro.ampc.backends.serial.SerialBackend`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, Union

from ..dht import HashTable, TableSnapshot
from ..errors import ProtocolError
from ..machine import MachineContext

MachineProgram = Callable[[MachineContext], None]
Readable = Union[HashTable, TableSnapshot]


@dataclass
class MachineResult:
    """What one machine's execution contributes back to the round.

    Everything the runtime needs to merge writes and account the round:
    the buffered writes (in the machine's own write order), the local
    memory high-water mark, and the adaptive-read count.  Plain data,
    picklable whenever the DHT values are.
    """

    machine_id: int
    writes: list[tuple[Any, Any]] = field(default_factory=list)
    peak_words: int = 0
    reads: int = 0


def execute_machine(
    machine_id: int,
    program: MachineProgram,
    payload: Any,
    readable: Readable,
    local_limit: int,
) -> MachineResult:
    """Run one machine program to completion; shared by all backends."""
    ctx = MachineContext(machine_id, readable, local_limit, payload=payload)
    program(ctx)
    return MachineResult(
        machine_id=machine_id,
        writes=ctx.drain_writes(),
        peak_words=ctx.peak_words,
        reads=ctx.reads,
    )


class RoundBackend(ABC):
    """Executes the machine programs of one synchronous round."""

    #: registry / ``AMPC_BACKEND`` name ("serial", "shm")
    name: str = "abstract"

    #: whether :meth:`run_column_round` is implemented.  Primitives probe
    #: this to decide between the object path (closures) and the columnar
    #: path (picklable round specs over array snapshots).
    supports_columnar: bool = False

    @abstractmethod
    def run_round(
        self,
        programs: Sequence[tuple[MachineProgram, Any]],
        readable: Readable,
        local_limit: int,
    ) -> list[MachineResult]:
        """Run every program against ``readable``; results in index order."""

    def run_column_round(
        self,
        op: str,
        params: dict,
        n_machines: int,
        keys: Any,
        values: Any,
        local_limit: int,
    ) -> list[Any]:
        """Run a columnar round spec; slice results in machine order.

        Only backends advertising ``supports_columnar`` implement this;
        the runtime never calls it otherwise.
        """
        raise ProtocolError(
            f"backend {self.name!r} does not execute columnar rounds"
        )

    def close(self) -> None:
        """Release pooled resources (idempotent; default: nothing)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
