"""Per-machine execution context.

A *machine program* is a Python callable ``program(ctx)`` receiving a
:class:`MachineContext`.  During the round the program may:

* :meth:`MachineContext.read` — adaptive random access into the
  previous round's hash table (this is the A in AMPC: the key may
  depend on values read earlier in the same round);
* :meth:`MachineContext.write` — buffer a key/value for the *next*
  table; writes become visible only after the round ends;
* :meth:`MachineContext.hold` / :meth:`release` — declare local working
  memory so the simulator can enforce the ``O(n^eps)`` budget.

Reads and writes are themselves accounted against local memory: a
machine cannot read more words than fit in its memory, mirroring the
model's "reading and writing is limited by machine local memory".

``readable`` is a :class:`~repro.ampc.dht.TableSnapshot`: the runtime
hands out an immutable snapshot of the previous table, so contexts
never get a handle that could write it and no machine can observe
another's writes mid-round.  (A :class:`~repro.ampc.dht.HashTable`
shares the snapshot's read methods, so tests may pass one directly.)  Machines run
isolated: a program must communicate only through ``ctx`` (reads,
writes, payload), never by mutating host objects it closed over —
in the model, machines share nothing but the DHT.
"""

from __future__ import annotations

from typing import Any, Iterable

from .dht import TableSnapshot, word_size
from .errors import MemoryLimitExceeded


class MachineContext:
    """Capability handle a machine program uses during one round."""

    def __init__(
        self,
        machine_id: int,
        readable: TableSnapshot,
        local_limit: int,
        *,
        payload: Any = None,
    ):
        self.machine_id = machine_id
        self.payload = payload
        self._readable = readable
        self._local_limit = int(local_limit)
        self._held_words = 0
        self._peak_words = 0
        self._reads = 0
        self._writes: list[tuple[Any, Any]] = []
        self._write_words = 0
        if payload is not None:
            self.hold(word_size(payload))

    # ------------------------------------------------------------------
    # Local memory
    # ------------------------------------------------------------------
    def hold(self, words: int) -> None:
        """Declare ``words`` of local working memory as in use."""
        if words < 0:
            raise ValueError("words must be non-negative")
        self._held_words += words
        self._peak_words = max(self._peak_words, self._held_words)
        if self._held_words > self._local_limit:
            raise MemoryLimitExceeded(
                self._held_words, self._local_limit, self.machine_id
            )

    def release(self, words: int) -> None:
        """Release previously-held local memory."""
        self._held_words = max(0, self._held_words - words)

    @property
    def local_limit(self) -> int:
        return self._local_limit

    @property
    def peak_words(self) -> int:
        return self._peak_words

    @property
    def reads(self) -> int:
        return self._reads

    # ------------------------------------------------------------------
    # DHT access
    # ------------------------------------------------------------------
    def read(self, key: Any) -> Any:
        """Adaptive read from the previous round's table."""
        value = self._readable.get(key)
        self._reads += 1
        words = word_size(value)
        # Model the value passing through local memory.
        self.hold(words)
        self.release(words)
        return value

    def read_default(self, key: Any, default: Any = None) -> Any:
        value = self._readable.get_default(key, default)
        self._reads += 1
        words = word_size(value)
        self.hold(words)
        self.release(words)
        return value

    def contains(self, key: Any) -> bool:
        self._reads += 1
        return self._readable.contains(key)

    def write(self, key: Any, value: Any) -> None:
        """Buffer a write for the next table (visible next round)."""
        words = word_size(key) + word_size(value)
        self._write_words += words
        # Outgoing messages must fit in local memory alongside held data.
        self.hold(words)
        self.release(words)
        self._writes.append((key, value))

    def write_many(self, items: Iterable[tuple[Any, Any]]) -> None:
        for key, value in items:
            self.write(key, value)

    # ------------------------------------------------------------------
    def drain_writes(self) -> list[tuple[Any, Any]]:
        """Runtime hook: collect buffered writes at end of round."""
        writes, self._writes = self._writes, []
        return writes
