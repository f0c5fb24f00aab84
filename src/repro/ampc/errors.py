"""Exception types for the AMPC simulator.

The AMPC model (Behnezhad et al., SPAA 2019) constrains each machine to
``O(n^eps)`` words of local memory and restricts when machines may read
(any time, adaptively, from the previous round's hash table) and write
(only at the end of a round, to the next hash table).  The simulator
raises a dedicated exception for each violated constraint so that tests
can assert the model is actually enforced rather than merely documented.
"""

from __future__ import annotations


class AMPCError(Exception):
    """Base class for all AMPC simulator errors."""


class MemoryLimitExceeded(AMPCError):
    """A machine exceeded its local memory budget during a round.

    Attributes
    ----------
    used:
        Number of words the machine attempted to hold.
    limit:
        The per-machine word budget in force.
    machine:
        Identifier of the offending machine program.
    """

    def __init__(self, used: int, limit: int, machine: object = None):
        self.used = int(used)
        self.limit = int(limit)
        self.machine = machine
        super().__init__(
            f"machine {machine!r} used {used} words, exceeding the "
            f"local-memory budget of {limit} words"
        )

    def __reduce__(self):
        # Exceptions with multi-arg __init__ need explicit reduction to
        # survive a pickle hop out of a worker process.
        return (type(self), (self.used, self.limit, self.machine))


class TotalSpaceExceeded(AMPCError):
    """The distributed hash tables exceeded the total-space budget."""

    def __init__(self, used: int, limit: int):
        self.used = int(used)
        self.limit = int(limit)
        super().__init__(
            f"distributed hash tables hold {used} words, exceeding the "
            f"total-space budget of {limit} words"
        )

    def __reduce__(self):
        return (type(self), (self.used, self.limit))


class AMPCUsageError(AMPCError):
    """The simulator API was used in a way that has no model meaning.

    Raised eagerly (instead of silently producing nonsense) when host
    code drives the runtime outside its contract — e.g. seeding a DHT
    chain that has already advanced past round 0, which would write
    "input" into the middle of a computation's table sequence.
    """


class MissingKeyError(AMPCError, KeyError):
    """An adaptive read referenced a key absent from the hash table."""

    def __init__(self, key: object, table: str = ""):
        self.key = key
        self.table = table
        super().__init__(f"key {key!r} not present in hash table {table!r}")

    def __reduce__(self):
        return (type(self), (self.key, self.table))
