"""Distributed sample sort in ``O(1)`` AMPC rounds.

The classic PSRS (Parallel Sorting by Regular Sampling) pipeline,
expressed as five synchronous rounds:

1. **local sort** — each chunk machine sorts its chunk and emits
   ``p`` regular samples;
2. **pivot selection** — one coordinator machine reads all samples and
   broadcasts ``B-1`` pivots (regular sampling keeps each final bucket
   within a factor ~2 of the average, so buckets fit on machines);
3. **partition** — each chunk machine splits its sorted run by the
   pivots and writes one segment per (bucket, chunk) pair plus the
   segment's size;
4. **bucket offsets** — the coordinator prefix-sums bucket totals into
   global offsets (bucket count ≤ machine memory by construction);
5. **merge** — each bucket's piece streams are k-way merged.  Segments
   are stored as small *pieces* and merged streaming (one live piece
   per source), so no machine ever holds a whole bucket; when a bucket
   has more sources than the memory budget allows live at once, the
   merge runs as a tree with fan-in derived from the budget, adding
   ``O(log_fan(sources)) = O(1/eps)`` rounds.

Sorting is the workhorse under the paper's Lemma 14 (sorting interval
endpoints) and under MST construction (Kruskal order), so its round
cost being O(1) is what lets those lemmas claim O(1/eps) rounds.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import Any, Callable, Sequence

import numpy as np

from .. import columnar as col
from ..config import AMPCConfig
from ..dht import word_size
from ..ledger import RoundLedger
from ..machine import MachineContext
from ..runtime import AMPCRuntime
from .distribute import chunk_size_for, seed_chunks

#: samples taken from each chunk in round 1
_SAMPLES_PER_CHUNK = 8


def ampc_sort(
    config: AMPCConfig,
    values: Sequence[Any],
    *,
    key: Callable[[Any], Any] | None = None,
    ledger: RoundLedger | None = None,
) -> list[Any]:
    """Sort ``values`` with a genuinely-executed distributed sample sort.

    Returns the sorted list.  Rounds/memory/queries are recorded in
    ``ledger`` (a fresh one is created when omitted; pass the pipeline's
    ledger to accumulate).  Plain int or finite float inputs without a
    ``key`` run as columnar round specs; everything else runs the
    object reference, :func:`_sort_object`.
    """
    if key is None and len(values) > 1 and _sort_columnar_ok(values):
        return _sort_columnar(AMPCRuntime(config, ledger=ledger), values)
    return _sort_object(config, values, key=key, ledger=ledger)


def _sort_object(
    config: AMPCConfig,
    values: Sequence[Any],
    *,
    key: Callable[[Any], Any] | None = None,
    ledger: RoundLedger | None = None,
) -> list[Any]:
    """The object-path sample sort: one machine program per machine."""
    keyf = key if key is not None else (lambda x: x)
    n = len(values)
    runtime = AMPCRuntime(config, ledger=ledger)
    if n <= 1:
        # Degenerate input: still account one round (a machine must look).
        runtime.seed([(("in", "chunk", 0), list(values)), (("in", "meta"), (n, 1, 1))])
        runtime.round(
            [(lambda ctx: ctx.write(("out", "chunk", 0), ctx.read(("in", "chunk", 0))), None)],
            "sample sort: trivial input",
        )
        return list(values)

    n_chunks, _ = seed_chunks(runtime, "in", values)
    decorated_key = keyf

    # Sampling density: the pivot coordinator must hold every sample, so
    # scale samples-per-chunk down when there are many chunks.  Sparser
    # samples skew buckets, which the merge tree below absorbs.
    samples_per_chunk = max(
        1,
        min(
            _SAMPLES_PER_CHUNK,
            (config.local_memory_words // 3) // max(1, n_chunks),
        ),
    )

    # ------------------------------------------------------------ round 1
    def local_sort(ctx: MachineContext) -> None:
        j = ctx.payload
        chunk = ctx.read(("in", "chunk", j))
        words = word_size(chunk)
        ctx.hold(words)
        run = sorted(chunk, key=decorated_key)
        step = max(1, len(run) // samples_per_chunk)
        samples = [decorated_key(x) for x in run[::step]][:samples_per_chunk]
        ctx.release(words)  # the run is handed off to the write buffer
        ctx.write(("run", j), run)
        ctx.write(("samples", j), samples)

    runtime.round(
        [(local_sort, j) for j in range(n_chunks)],
        "sample sort: local sort + sampling",
        carry_forward=True,
    )

    # ------------------------------------------------------------ round 2
    n_buckets = n_chunks

    def select_pivots(ctx: MachineContext) -> None:
        all_samples: list[Any] = []
        for j in range(n_chunks):
            s = ctx.read(("samples", j))
            all_samples.extend(s)
            ctx.hold(len(s))
        all_samples.sort()
        step = max(1, len(all_samples) // n_buckets)
        pivots = all_samples[step::step][: n_buckets - 1]
        ctx.write(("pivots",), pivots)
        ctx.release(len(all_samples))

    runtime.round(
        [(select_pivots, None)],
        "sample sort: pivot selection",
        carry_forward=True,
    )

    # ------------------------------------------------------------ round 3
    # Segments are written as small *pieces* so the merge round can
    # stream them: a bucket machine never holds a whole (possibly
    # skewed) bucket, only one piece per source chunk.
    def partition(ctx: MachineContext) -> None:
        j = ctx.payload
        run = ctx.read(("run", j))
        words = word_size(run)
        ctx.hold(words)
        pivots = ctx.read(("pivots",))
        run_keys = [decorated_key(x) for x in run]
        cuts = [0] + [bisect.bisect_right(run_keys, p) for p in pivots] + [len(run)]
        ctx.release(words)  # pieces stream straight to the write buffer
        for b in range(len(cuts) - 1):
            seg = run[cuts[b] : cuts[b + 1]]
            n_pieces = 0
            piece: list[Any] = []
            piece_words = 0
            for x in seg:
                w = word_size(x)
                if piece and piece_words + w > col.PIECE_WORDS:
                    ctx.write(("seg", b, j, n_pieces), piece)
                    n_pieces += 1
                    piece, piece_words = [], 0
                piece.append(x)
                piece_words += w
            if piece:
                ctx.write(("seg", b, j, n_pieces), piece)
                n_pieces += 1
            ctx.write(("segsize", b, j), len(seg))
            ctx.write(("segpieces", b, j), n_pieces)

    runtime.round(
        [(partition, j) for j in range(n_chunks)],
        "sample sort: partition by pivots",
        carry_forward=True,
    )

    # ------------------------------------------------------------ round 4
    def bucket_offsets(ctx: MachineContext) -> None:
        totals = []
        for b in range(n_buckets):
            total = 0
            for j in range(n_chunks):
                total += ctx.read_default(("segsize", b, j), 0)
            totals.append(total)
        ctx.hold(len(totals))
        offset = 0
        for b, total in enumerate(totals):
            ctx.write(("bucketoff", b), offset)
            offset += total
        ctx.release(len(totals))

    runtime.round(
        [(bucket_offsets, None)],
        "sample sort: bucket offsets",
        carry_forward=True,
    )

    # ---------------------------------------------------- rounds 5..5+L
    # Tree merge of each bucket's piece streams, fan-in sized by the
    # machine budget.
    fan_in = col.merge_fan_in(config.local_memory_words)

    # Host control-plane: piece counts per (bucket, source) decide the
    # merge-tree shape; the pieces themselves stay in the DHT.
    sources_of: dict[int, list[tuple[tuple, int]]] = {}
    for b in range(n_buckets):
        lst = []
        for j in range(n_chunks):
            cnt = runtime.table.get_default(("segpieces", b, j), 0)
            if cnt:
                lst.append((("seg", b, j), cnt))
        sources_of[b] = lst

    merge_level = 0
    while any(len(srcs) > fan_in for srcs in sources_of.values()):
        programs = []
        group_meta: list[tuple[int, int, tuple]] = []
        for b, srcs in sources_of.items():
            if len(srcs) <= fan_in:
                continue
            for g in range(0, len(srcs), fan_in):
                group = srcs[g : g + fan_in]
                out_prefix = ("mseg", b, merge_level, g // fan_in)
                programs.append(
                    (
                        _make_group_merger(group, out_prefix, decorated_key),
                        None,
                    )
                )
                group_meta.append((b, g // fan_in, out_prefix))
        runtime.round(
            programs,
            f"sample sort: merge-tree level {merge_level}",
            carry_forward=True,
        )
        new_sources: dict[int, list[tuple[tuple, int]]] = {}
        for b, srcs in sources_of.items():
            if len(srcs) <= fan_in:
                new_sources[b] = srcs
            else:
                new_sources[b] = []
        for b, grp, out_prefix in group_meta:
            cnt = runtime.table.get(("mcount",) + out_prefix)
            new_sources[b].append((out_prefix, cnt))
        sources_of = new_sources
        merge_level += 1

    out_chunk = chunk_size_for(config)

    def merge_bucket(ctx: MachineContext) -> None:
        b = ctx.payload
        offset = ctx.read(("bucketoff", b))
        emitted = 0
        piece: list[Any] = []
        piece_words = 0
        piece_start = offset

        def emit(x: Any) -> None:
            nonlocal piece, piece_words, piece_start, emitted
            w = word_size(x)
            if piece and piece_words + w > out_chunk:
                ctx.write(("outpiece", piece_start), piece)
                emitted += len(piece)
                piece, piece_words, piece_start = [], 0, offset + emitted
            piece.append(x)
            piece_words += w

        _streaming_merge(ctx, sources_of[b], decorated_key, emit)
        if piece:
            ctx.write(("outpiece", piece_start), piece)

    runtime.round(
        [(merge_bucket, b) for b in range(n_buckets)],
        "sample sort: final streaming merge",
        carry_forward=True,
    )

    # Host-side reassembly (no extra round: this is reading the output).
    pieces = sorted(
        (
            (key_[1], val)
            for key_, val in runtime.table.items()
            if isinstance(key_, tuple) and key_ and key_[0] == "outpiece"
        ),
        key=lambda kv: kv[0],
    )
    out: list[Any] = []
    for _, piece in pieces:
        out.extend(piece)
    return out


class _StreamSource:
    """One piece stream being merged: holds a single live piece."""

    __slots__ = ("ctx", "prefix", "n_pieces", "next_piece", "piece", "pos", "words")

    def __init__(self, ctx: MachineContext, prefix: tuple, n_pieces: int):
        self.ctx = ctx
        self.prefix = prefix
        self.n_pieces = n_pieces
        self.next_piece = 0
        self.piece: list[Any] = []
        self.pos = 0
        self.words = 0

    def refill(self) -> bool:
        if self.pos < len(self.piece):
            return True
        self.ctx.release(self.words)
        self.words = 0
        if self.next_piece >= self.n_pieces:
            return False
        self.piece = self.ctx.read(self.prefix + (self.next_piece,))
        self.words = word_size(self.piece)
        self.ctx.hold(self.words)
        self.next_piece += 1
        self.pos = 0
        return True

    def head(self):
        return self.piece[self.pos]

    def advance(self) -> None:
        self.pos += 1


def _streaming_merge(
    ctx: MachineContext,
    sources: list[tuple[tuple, int]],
    keyf: Callable[[Any], Any],
    emit: Callable[[Any], None],
) -> None:
    """K-way merge of piece streams, one live piece per source.

    The per-hop adaptive reads that refill exhausted pieces are exactly
    the AMPC capability MPC lacks — in MPC the bucket machine would
    have to receive its whole bucket in one exchange.
    """
    live = []
    for prefix, n_pieces in sources:
        src = _StreamSource(ctx, prefix, n_pieces)
        if src.refill():
            live.append(src)
    heap = [(keyf(src.head()), idx) for idx, src in enumerate(live)]
    heapq.heapify(heap)
    while heap:
        _, idx = heapq.heappop(heap)
        src = live[idx]
        x = src.head()
        src.advance()
        if src.refill():
            heapq.heappush(heap, (keyf(src.head()), idx))
        emit(x)


def _make_group_merger(
    group: list[tuple[tuple, int]],
    out_prefix: tuple,
    keyf: Callable[[Any], Any],
):
    """Program merging a group of piece streams into a new piece stream.

    Writes pieces under ``out_prefix + (i,)`` and the piece count under
    ``("mcount",) + out_prefix``.
    """

    def program(ctx: MachineContext) -> None:
        n_out = 0
        piece: list[Any] = []
        piece_words = 0

        def emit(x: Any) -> None:
            nonlocal n_out, piece, piece_words
            w = word_size(x)
            if piece and piece_words + w > col.PIECE_WORDS:
                ctx.write(out_prefix + (n_out,), piece)
                n_out += 1
                piece, piece_words = [], 0
            piece.append(x)
            piece_words += w

        _streaming_merge(ctx, group, keyf, emit)
        if piece:
            ctx.write(out_prefix + (n_out,), piece)
            n_out += 1
        ctx.write(("mcount",) + out_prefix, n_out)

    return program


# ======================================================================
# Columnar path: same PSRS pipeline as picklable round specs
# ======================================================================

def _sort_columnar_ok(values: Sequence[Any]) -> bool:
    """True when the columnar sort provably matches the object path.

    Requires a homogeneous numeric column: all genuine Python ints in
    int64 range, or all finite floats.  NaNs fall back to the object
    path (``sorted`` and ``np.sort`` order them differently), as do
    bools (they hash equal to 0/1 but carry a distinct runtime type)
    and mixed int/float inputs (no single column dtype holds both
    losslessly).
    """
    first = type(values[0])
    if first is int:
        return all(
            type(v) is int and -(2**63) <= v < 2**63 for v in values
        )
    if first is float:
        return all(type(v) is float and math.isfinite(v) for v in values)
    return False


def _sample_count(length: int, spc: int) -> int:
    """Samples round 1 emits for a chunk: ``len(run[::step][:spc])``."""
    step = max(1, length // spc)
    return min(spc, (length + step - 1) // step)


def _sort_columnar(runtime: AMPCRuntime, values: Sequence[Any]) -> list[Any]:
    """Columnar twin of the PSRS pipeline above, round for round.

    Same host control flow — identical round count, reason strings and
    machine counts, including the data-dependent merge-tree shape — but
    rounds are specs from :mod:`repro.ampc.columnar` over numeric
    columns (Snippet-style sample-splitter selection + partitioned
    exchange).  Stable numpy sorts make every merge order-equivalent to
    the object path's stable k-way merges, so outputs are bit-identical.
    """
    config = runtime.config
    n = len(values)
    is_float = type(values[0]) is float
    dtype = np.float64 if is_float else np.int64

    # Numeric scalars are one word each, so seed_chunks' word-budget
    # packing degenerates to fixed-size chunks; replicate its bounds.
    budget = chunk_size_for(config)
    bounds = list(range(0, n, budget)) + [n]
    n_chunks = len(bounds) - 1

    runtime.seed_columns(
        col.pack(col.T_IN, np.arange(n)),
        np.asarray(values, dtype=dtype),
        value_dtype=dtype,
    )

    spc = max(
        1,
        min(
            _SAMPLES_PER_CHUNK,
            (config.local_memory_words // 3) // max(1, n_chunks),
        ),
    )
    samp_off = [0]
    for j in range(n_chunks):
        samp_off.append(samp_off[-1] + _sample_count(bounds[j + 1] - bounds[j], spc))

    runtime.column_round(
        "sort_local",
        {"bounds": bounds, "spc": spc, "samp_off": samp_off},
        n_chunks,
        "sample sort: local sort + sampling",
        carry_forward=True,
    )

    n_buckets = n_chunks
    runtime.column_round(
        "sort_pivots",
        {"n_buckets": n_buckets},
        1,
        "sample sort: pivot selection",
        carry_forward=True,
    )
    runtime.column_round(
        "sort_partition",
        {"bounds": bounds, "n_chunks": n_chunks, "n_buckets": n_buckets},
        n_chunks,
        "sample sort: partition by pivots",
        carry_forward=True,
    )
    runtime.column_round(
        "sort_bucket_offsets",
        {"n_buckets": n_buckets, "n_chunks": n_chunks},
        1,
        "sample sort: bucket offsets",
        carry_forward=True,
    )

    # Host control-plane, same as the object path (which reads piece
    # counts between rounds): segment sizes decide the merge-tree shape;
    # the segments themselves stay in the columns.
    segsz = (
        runtime.table.get_many(
            col.pack(col.T_SEGSZ, np.arange(n_buckets * n_chunks))
        )
        .astype(np.int64)
        .reshape(n_buckets, n_chunks)
    )
    cuts = np.zeros((n_buckets + 1, n_chunks), dtype=np.int64)
    np.cumsum(segsz, axis=0, out=cuts[1:])

    fan_in = col.merge_fan_in(config.local_memory_words)
    sources_of: dict[int, list[tuple[int, int, int]]] = {
        b: [
            (col.T_RUN, bounds[j] + int(cuts[b, j]), int(segsz[b, j]))
            for j in range(n_chunks)
            if segsz[b, j]
        ]
        for b in range(n_buckets)
    }

    merge_level = 0
    while any(len(srcs) > fan_in for srcs in sources_of.values()):
        groups: list[tuple[list[tuple[int, int, int]], int]] = []
        group_meta: list[tuple[int, int, int]] = []
        out_pos = 0
        for b, srcs in sources_of.items():
            if len(srcs) <= fan_in:
                continue
            for g in range(0, len(srcs), fan_in):
                group = srcs[g : g + fan_in]
                total = sum(length for _, _, length in group)
                groups.append((group, out_pos))
                group_meta.append((b, out_pos, total))
                out_pos += total
        out_tag = col.T_MS_BASE + merge_level
        runtime.column_round(
            "sort_merge_level",
            {"groups": groups, "out_tag": out_tag},
            len(groups),
            f"sample sort: merge-tree level {merge_level}",
            carry_forward=True,
        )
        new_sources: dict[int, list[tuple[int, int, int]]] = {
            b: (srcs if len(srcs) <= fan_in else [])
            for b, srcs in sources_of.items()
        }
        for b, start, total in group_meta:
            new_sources[b].append((out_tag, start, total))
        sources_of = new_sources
        merge_level += 1

    runtime.column_round(
        "sort_final_merge",
        {
            "buckets": [sources_of[b] for b in range(n_buckets)],
            "out_chunk": budget,
        },
        n_buckets,
        "sample sort: final streaming merge",
        carry_forward=True,
    )

    out = runtime.table.get_many(col.pack(col.T_OUT, np.arange(n)))
    return out.tolist()
