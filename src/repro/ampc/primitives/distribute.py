"""Chunking helpers shared by the distributed primitives.

A machine can hold ``config.local_memory_words`` words, so bulk inputs
are split into chunks sized to leave headroom for the machine's own
bookkeeping.  The convention throughout the primitives: a list value
``xs`` is stored in the DHT under keys ``(name, "chunk", j)`` for chunk
index ``j`` plus a manifest ``(name, "meta")`` holding ``(n, n_chunks,
chunk_size)``.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..config import AMPCConfig
from ..runtime import AMPCRuntime

#: Fraction of local memory a chunk may occupy (the rest is headroom
#: for merge buffers, samples, and write staging; sample-sort buckets
#: can be ~2x a chunk under pivot skew, so 6 leaves real slack).
CHUNK_FRACTION = 6


def chunk_size_for(config: AMPCConfig) -> int:
    """Words per chunk so a machine can hold a chunk plus working space."""
    return max(8, config.local_memory_words // CHUNK_FRACTION)


def seed_chunks(
    runtime: AMPCRuntime, name: str, values: Sequence[Any]
) -> tuple[int, int]:
    """Load ``values`` into ``H_0`` as chunks; return (n_chunks, chunk_size).

    Chunks are packed by *word* budget, not element count, so values
    with multi-word elements (edge tuples, interval records) still fit
    machine memory.
    """
    from ..dht import word_size

    budget = chunk_size_for(runtime.config)
    chunks: list[list[Any]] = []
    cur: list[Any] = []
    cur_words = 0
    for v in values:
        w = word_size(v)
        if cur and cur_words + w > budget:
            chunks.append(cur)
            cur, cur_words = [], 0
        cur.append(v)
        cur_words += w
    if cur or not chunks:
        chunks.append(cur)
    items: list[tuple[Any, Any]] = [
        ((name, "chunk", j), chunk) for j, chunk in enumerate(chunks)
    ]
    items.append(((name, "meta"), (len(values), len(chunks), budget)))
    runtime.seed(items)
    return len(chunks), budget
