"""Prefix sums and the minimum prefix sum (paper Theorem 5).

Theorem 5 (Behnezhad et al. [2]): for a sequence of integers of length
``n``, the minimum over all prefix sums can be computed in ``O(1/eps)``
AMPC rounds with ``O(n^eps)`` local memory and ``O(n log n)`` total
space.  The paper uses this inside Lemma 14 to turn interval stabbing
into a sweep.

The implementation is the textbook three-round scan:

1. each chunk machine computes its chunk's total and its chunk-local
   minimum prefix;
2. a coordinator scan over the (few) chunk totals produces per-chunk
   offsets — when the number of chunks itself exceeds machine memory
   the scan recurses, giving the ``O(1/eps)`` round bound;
3. each chunk machine adds its offset and emits final prefix values.

The minimum prefix sum falls out of round 2 for free:
``min_j (offset_j + local_min_prefix_j)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import columnar as col
from ..config import AMPCConfig
from ..ledger import RoundLedger
from ..dht import word_size
from ..machine import MachineContext
from ..runtime import AMPCRuntime
from .distribute import chunk_size_for, seed_chunks


def _scan_rounds(
    runtime: AMPCRuntime, n_chunks: int, capacity: int
) -> None:
    """Hierarchical scan of chunk totals ``("tot", j)`` into offsets.

    Writes ``("off", j)`` (sum of totals of chunks before ``j``) and
    ``("minpref", )`` (global minimum prefix).  Recurses while the
    number of groups exceeds machine capacity.
    """
    level = 0
    counts = [n_chunks]
    # Build the reduction pyramid upward: level-l groups of `capacity`.
    while counts[-1] > capacity:
        counts.append((counts[-1] + capacity - 1) // capacity)

    # Upward pass: aggregate group totals level by level.
    for lvl in range(1, len(counts)):
        groups = counts[lvl]

        def agg(ctx: MachineContext, _lvl: int = lvl) -> None:
            g = ctx.payload
            total = 0
            for child in range(g * capacity, min((g + 1) * capacity, counts[_lvl - 1])):
                total += ctx.read(("tot", _lvl - 1, child))
            ctx.write(("tot", _lvl, g), total)

        runtime.round(
            [(agg, g) for g in range(groups)],
            f"prefix scan: upward level {lvl}",
            carry_forward=True,
        )

    # Downward pass: compute each group's offset from its parent's.
    top = len(counts) - 1

    def seed_top(ctx: MachineContext) -> None:
        # The top level has at most `capacity` groups: one machine scans it.
        running = 0
        for g in range(counts[top]):
            ctx.write(("off", top, g), running)
            running += ctx.read(("tot", top, g))

    runtime.round([(seed_top, None)], "prefix scan: top offsets", carry_forward=True)

    for lvl in range(top, 0, -1):

        def push(ctx: MachineContext, _lvl: int = lvl) -> None:
            g = ctx.payload
            base = ctx.read(("off", _lvl, g))
            running = base
            for child in range(g * capacity, min((g + 1) * capacity, counts[_lvl - 1])):
                ctx.write(("off", _lvl - 1, child), running)
                running += ctx.read(("tot", _lvl - 1, child))

        runtime.round(
            [(push, g) for g in range(counts[lvl])],
            f"prefix scan: downward level {lvl}",
            carry_forward=True,
        )


def ampc_prefix_sums(
    config: AMPCConfig,
    values: Sequence[int],
    *,
    ledger: RoundLedger | None = None,
) -> list[int]:
    """Inclusive prefix sums of ``values`` as a distributed scan."""
    sums, _ = _prefix_impl(config, values, ledger=ledger)
    return sums


def ampc_min_prefix_sum(
    config: AMPCConfig,
    values: Sequence[int],
    *,
    ledger: RoundLedger | None = None,
) -> int:
    """Minimum over all (inclusive, non-empty) prefix sums — Theorem 5.

    Raises ``ValueError`` on empty input (no non-empty prefix exists).
    """
    if len(values) == 0:
        raise ValueError("minimum prefix sum of empty sequence is undefined")
    _, minimum = _prefix_impl(config, values, ledger=ledger)
    return minimum


def _columnar_ok(values: Sequence[int]) -> bool:
    """True when the columnar path provably matches the object path.

    Restricted to genuine Python ints (bools carry a different runtime
    type even though they hash equal) whose running sums cannot leave
    int64 range — ``np.cumsum`` over int64 is then exact, so the two
    paths are bit-identical.  Floats stay on the object path: blocked
    cumsum would re-associate additions and drift in the last ulp.
    """
    n = len(values)
    if n == 0:
        return True
    bound = 2**62 // n
    return all(type(v) is int and -bound < v < bound for v in values)


def _prefix_impl(
    config: AMPCConfig,
    values: Sequence[int],
    *,
    ledger: RoundLedger | None,
) -> tuple[list[int], int]:
    """``(prefix sums, minimum prefix)``: columnar for plain ints."""
    if len(values) > 0 and _columnar_ok(values):
        return _prefix_columnar(AMPCRuntime(config, ledger=ledger), values)
    return _prefix_object(config, values, ledger=ledger)


def _prefix_object(
    config: AMPCConfig,
    values: Sequence[int],
    *,
    ledger: RoundLedger | None = None,
) -> tuple[list[int], int]:
    """The object-path scan: one machine program per machine."""
    runtime = AMPCRuntime(config, ledger=ledger)
    n = len(values)
    if n == 0:
        return [], 0
    n_chunks, _ = seed_chunks(runtime, "x", values)
    capacity = max(2, chunk_size_for(config))

    # ---------------------------------------------------------- round 1
    def local_scan(ctx: MachineContext) -> None:
        j = ctx.payload
        chunk = ctx.read(("x", "chunk", j))
        words = word_size(chunk)
        ctx.hold(words)
        total = 0
        local_min = None
        for v in chunk:
            total += v
            local_min = total if local_min is None else min(local_min, total)
        ctx.write(("tot", 0, j), total)
        ctx.write(("locmin", j), local_min if local_min is not None else 0)
        ctx.release(words)

    runtime.round(
        [(local_scan, j) for j in range(n_chunks)],
        "prefix scan: chunk totals",
        carry_forward=True,
    )

    # ------------------------------------------------- rounds 2..O(1/eps)
    _scan_rounds(runtime, n_chunks, capacity)

    # ---------------------------------------------------------- round f
    def finalize(ctx: MachineContext) -> None:
        j = ctx.payload
        chunk = ctx.read(("x", "chunk", j))
        words = word_size(chunk)
        ctx.hold(words)
        offset = ctx.read(("off", 0, j))
        out = []
        running = offset
        for v in chunk:
            running += v
            out.append(running)
        ctx.write(("pref", "chunk", j), out)
        local_min = ctx.read(("locmin", j))
        ctx.write(("globmin", j), offset + local_min if chunk else None)
        ctx.release(words)

    runtime.round(
        [(finalize, j) for j in range(n_chunks)],
        "prefix scan: finalize",
        carry_forward=True,
    )

    # ---------------------------------------------------------- round m
    def reduce_min(ctx: MachineContext) -> None:
        best = None
        for j in range(n_chunks):
            cand = ctx.read_default(("globmin", j))
            if cand is not None and (best is None or cand < best):
                best = cand
        ctx.write(("minprefix",), best)

    runtime.round([(reduce_min, None)], "prefix scan: min reduce", carry_forward=True)

    out: list[int] = []
    for j in range(n_chunks):
        out.extend(runtime.table.get(("pref", "chunk", j)))
    return out, runtime.table.get(("minprefix",))


def _prefix_columnar(
    runtime: AMPCRuntime, values: Sequence[int]
) -> tuple[list[int], int]:
    """Columnar twin of the object scan above, round for round.

    Same host control flow — identical round count, reason strings and
    machine counts — but every round is a picklable spec from
    :mod:`repro.ampc.columnar` executed over int64 columns (blocked
    ``np.cumsum`` instead of per-element Python adds).  Int arithmetic
    is exact, so outputs are bit-identical to the object reference; the
    differential harness holds this path to that.
    """
    config = runtime.config
    n = len(values)
    # Ints are one word each, so seed_chunks' word-budget packing
    # degenerates to fixed-size chunks; replicate its boundaries.
    budget = chunk_size_for(config)
    bounds = list(range(0, n, budget)) + [n]
    n_chunks = len(bounds) - 1
    capacity = max(2, budget)

    runtime.seed_columns(
        col.pack(col.T_X, np.arange(n)), np.asarray(values, dtype=np.int64)
    )

    runtime.column_round(
        "prefix_chunk_stats",
        {"bounds": bounds},
        n_chunks,
        "prefix scan: chunk totals",
        carry_forward=True,
    )

    counts = [n_chunks]
    while counts[-1] > capacity:
        counts.append((counts[-1] + capacity - 1) // capacity)
    for lvl in range(1, len(counts)):
        runtime.column_round(
            "prefix_group_sum",
            {
                "capacity": capacity,
                "src_level": lvl - 1,
                "dst_level": lvl,
                "src_count": counts[lvl - 1],
            },
            counts[lvl],
            f"prefix scan: upward level {lvl}",
            carry_forward=True,
        )

    top = len(counts) - 1
    runtime.column_round(
        "prefix_top_scan",
        {"top_level": top},
        1,
        "prefix scan: top offsets",
        carry_forward=True,
    )
    for lvl in range(top, 0, -1):
        runtime.column_round(
            "prefix_push_down",
            {"capacity": capacity, "level": lvl, "child_count": counts[lvl - 1]},
            counts[lvl],
            f"prefix scan: downward level {lvl}",
            carry_forward=True,
        )

    runtime.column_round(
        "prefix_finalize",
        {"bounds": bounds},
        n_chunks,
        "prefix scan: finalize",
        carry_forward=True,
    )
    runtime.column_round(
        "prefix_min_reduce", {}, 1, "prefix scan: min reduce", carry_forward=True
    )

    pref = runtime.table.get_many(col.pack(col.T_PREF, np.arange(n)))
    minimum = int(runtime.table.get(int(col.pack(col.T_MINPREF, 0))))
    return [int(x) for x in pref.tolist()], minimum
