"""Columnar round specs: the vectorized execution path of the runtime.

The object path runs machine *programs* — Python closures reading and
writing one key at a time, so every element pays interpreter dispatch.
The columnar path replaces the closures with **round specs**: a named
op from the registry below plus a small ``params`` dict.  Round state
lives in a :class:`~repro.ampc.dht.ColumnTable` whose two
int64/float64 columns are the entire snapshot, and
:meth:`repro.ampc.runtime.AMPCRuntime.column_round` runs all of a
spec's machines over those columns in one vectorized call.

Identity packing
----------------
Object-path keys are tuples like ``("succ", lvl, v)``.  Columnar keys
pack a small integer *tag* (which logical column) and an *index*
(which element) into one int64::

    key = (tag << IDX_BITS) | index        0 <= index < 2**IDX_BITS

A whole logical column is therefore one contiguous slice of the sorted
key column (:func:`column`), and sparse lookups are one
``searchsorted`` (:func:`column_get`, through the same
:func:`repro.ampc.dht.sorted_get` the column tables read with).

Op contract
-----------
``op(keys, values, params, n_machines) -> (write_keys, write_values,
peak_words, reads)`` executes all ``n_machines`` virtual machines of
the round against the snapshot columns and returns the round's
buffered writes plus ledger stats.  The runtime calls an op only when
``n_machines >= 1``; a round with no machines writes nothing, like an
object round with no programs.  Ops must only *read* the snapshot (the
arrays are flagged read-only) and must emit writes in machine order,
mirroring the object path's per-machine write buffers — the same
canonical rule as :func:`repro.ampc.dht.merge_writes`.
``peak_words`` is the largest local memory any machine of the round
needs; the runtime holds it to the same ``local_memory_words`` budget
as the object path.

Every op mirrors its object-path counterpart's *round structure*: the
same host control flow issues the same number of rounds with the same
reason strings, and outputs are bit-identical — that is what the
differential harness (``tests/test_columnar_equivalence.py``) checks
against the object reference.  ``peak_words`` is the object machine's
exact peak: the words its payload, held values, reads and writes
occupy under :func:`repro.ampc.dht.word_size`, with one word per
numeric scalar.  A columnar round therefore exceeds the budget exactly
when its object twin does, and in the same round.  Ledger total words
and queries are recomputed from array sizes and may differ from the
object path's counts.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .dht import sorted_get, word_size

#: bits reserved for the element index inside a packed int64 key
IDX_BITS = 38

#: words per sample-sort segment piece.  Small pieces let the merge
#: rounds stream a bucket holding only one piece per source, keeping the
#: bucket machine within O(n^eps) even under pivot skew.
PIECE_WORDS = 4


def merge_fan_in(local_memory_words: int) -> int:
    """Sources one sample-sort merge machine streams at once.

    Each live source costs about ``PIECE_WORDS + 2`` words (a piece
    plus its bookkeeping) and the output buffer takes the other half of
    the budget.  Both sort paths size their merge tree by this rule.
    """
    return max(2, (local_memory_words // 2) // (PIECE_WORDS + 2))


def _scalar_write(key: tuple) -> int:
    """Words of writing one scalar under an object-path ``key``."""
    return word_size(key) + 1

_SENTINEL = np.int64(np.iinfo(np.int64).min // 2)


def pack(tag: int, idx: Any) -> Any:
    """Pack ``(tag, index)`` identities into int64 key space."""
    return (np.int64(tag) << IDX_BITS) | np.asarray(idx, dtype=np.int64)


def column(keys: np.ndarray, values: np.ndarray, tag: int) -> np.ndarray:
    """The contiguous value slice of logical column ``tag`` (index order)."""
    start = np.searchsorted(keys, np.int64(tag) << IDX_BITS)
    stop = np.searchsorted(keys, np.int64(tag + 1) << IDX_BITS)
    return values[start:stop]


def column_get(
    keys: np.ndarray,
    values: np.ndarray,
    tag: int,
    idx: np.ndarray,
    default: Any = None,
) -> np.ndarray:
    """Sparse lookup of ``column[tag][idx]``; missing keys get ``default``.

    With ``default=None`` a missing key raises
    :class:`~repro.ampc.errors.MissingKeyError` (a ``KeyError``) —
    columnar ops only look up identities the mirrored object program
    would have read, so a miss is a bug, not data.
    """
    return sorted_get(keys, values, pack(tag, idx), default)


def _masked_get(keys, values, tag, idx, default):
    """``column_get`` that passes ``-1`` indices through as ``default``."""
    idx = np.asarray(idx, dtype=np.int64)
    safe = np.where(idx < 0, 0, idx)
    out = column_get(keys, values, tag, safe, default=default)
    return np.where(idx < 0, np.asarray(default, dtype=out.dtype), out)


ColumnOp = Callable[
    [np.ndarray, np.ndarray, dict, int],
    tuple[np.ndarray, np.ndarray, int, int],
]

OPS: dict[str, ColumnOp] = {}


def columnar_op(name: str) -> Callable[[ColumnOp], ColumnOp]:
    def register(fn: ColumnOp) -> ColumnOp:
        OPS[name] = fn
        return fn

    return register


def _empty(dtype=np.int64):
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=dtype), 0, 0


# ======================================================================
# Shared column tags.  Each primitive uses its own runtime (fresh table
# chain), so tags only need to be unique within one primitive.
# ======================================================================

# prefix scan
T_X = 1          # input values
T_LOCMIN = 2     # per-chunk minimum running prefix
T_OFF_BASE = 100     # + level: per-group offsets
T_TOT_BASE = 300     # + level: per-group totals
T_PREF = 3       # final prefix values (element positions)
T_GLOBMIN = 4    # per-chunk global minimum candidates
T_MINPREF = 5    # the answer

# sample sort
T_IN = 1         # input values (element positions)
T_RUN = 2        # per-chunk sorted runs (element positions)
T_SAMP = 3       # regular samples (per-chunk offsets)
T_PIV = 4        # selected pivots
T_SEGSZ = 5      # (bucket, chunk) segment sizes, bucket-major
T_BOFF = 6       # per-bucket global output offsets
T_OUT = 7        # final sorted output (global positions)
T_MS_BASE = 500  # + merge level: merged stream storage

# list ranking
T_RANK = 1
T_SUCC_BASE = 10_000   # + level
T_W_BASE = 20_000      # + level
T_ANCH_BASE = 30_000   # + level


# ======================================================================
# Prefix scan ops (mirrors primitives/prefix.py round for round)
# ======================================================================

def _running_within(seg: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Each element's inclusive prefix sum within its chunk.

    The global cumsum minus the cumsum just before the chunk's start,
    which is exact for int64.
    """
    cs = np.cumsum(seg)
    base = np.concatenate([[0], cs[bounds[1:-1] - 1]])
    return cs - np.repeat(base, np.diff(bounds))


@columnar_op("prefix_chunk_stats")
def _prefix_chunk_stats(keys, values, params, n_machines):
    bounds = np.asarray(params["bounds"][: n_machines + 1], dtype=np.int64)
    seg = column(keys, values, T_X)[: bounds[-1]]
    running = _running_within(seg, bounds)
    totals = running[bounds[1:] - 1]
    locmin = np.minimum.reduceat(running, bounds[:-1])
    machine = np.arange(n_machines, dtype=np.int64)
    wk = np.concatenate([pack(T_TOT_BASE + 0, machine), pack(T_LOCMIN, machine)])
    wv = np.concatenate([totals, locmin])
    # payload + the held chunk list + the ("tot", 0, j) write
    c = int(np.diff(bounds).max())
    peak = 1 + (c + 1) + _scalar_write(("tot", 0, 0))
    return wk, wv, peak, int(seg.size)


@columnar_op("prefix_group_sum")
def _prefix_group_sum(keys, values, params, n_machines):
    cap = params["capacity"]
    child_hi = min(n_machines * cap, params["src_count"])
    seg = column(keys, values, T_TOT_BASE + params["src_level"])[:child_hi]
    totals = np.add.reduceat(seg, np.arange(0, child_hi, cap, dtype=np.int64))
    wk = pack(T_TOT_BASE + params["dst_level"], np.arange(n_machines, dtype=np.int64))
    # payload + one ("tot", lvl, g) write; child totals are read one by one
    return wk, totals, 1 + _scalar_write(("tot", 0, 0)), int(seg.size)


@columnar_op("prefix_top_scan")
def _prefix_top_scan(keys, values, params, n_machines):
    top = params["top_level"]
    tot = column(keys, values, T_TOT_BASE + top)
    off = np.concatenate([[0], np.cumsum(tot[:-1])]) if tot.size else tot
    wk = pack(T_OFF_BASE + top, np.arange(tot.size, dtype=np.int64))
    peak = _scalar_write(("off", 0, 0))
    return wk, np.asarray(off, dtype=values.dtype), peak, int(tot.size)


@columnar_op("prefix_push_down")
def _prefix_push_down(keys, values, params, n_machines):
    cap = params["capacity"]
    lvl = params["level"]
    off = column(keys, values, T_OFF_BASE + lvl)[:n_machines]
    child_hi = min(n_machines * cap, params["child_count"])
    seg = column(keys, values, T_TOT_BASE + (lvl - 1))[:child_hi]
    starts = np.arange(0, child_hi, cap, dtype=np.int64)
    excl = np.cumsum(seg) - seg          # inclusive -> exclusive
    group_sizes = np.diff(np.append(starts, child_hi))
    group_base = np.repeat(excl[starts], group_sizes)
    child_off = np.repeat(off, group_sizes) + (excl - group_base)
    wk = pack(T_OFF_BASE + (lvl - 1), np.arange(child_hi, dtype=np.int64))
    peak = 1 + _scalar_write(("off", 0, 0))
    return wk, child_off, peak, int(seg.size) + n_machines


@columnar_op("prefix_finalize")
def _prefix_finalize(keys, values, params, n_machines):
    bounds = np.asarray(params["bounds"][: n_machines + 1], dtype=np.int64)
    seg = column(keys, values, T_X)[: bounds[-1]]
    off = column(keys, values, T_OFF_BASE + 0)[:n_machines]
    locmin = column(keys, values, T_LOCMIN)[:n_machines]
    sizes = np.diff(bounds)
    pref = _running_within(seg, bounds) + np.repeat(off, sizes)
    machine = np.arange(n_machines, dtype=np.int64)
    wk = np.concatenate(
        [pack(T_PREF, np.arange(bounds[-1], dtype=np.int64)), pack(T_GLOBMIN, machine)]
    )
    wv = np.concatenate([pref, off + locmin])
    # payload + the held chunk + the ("pref", "chunk", j) list write
    c = int(sizes.max())
    peak = 1 + (c + 1) + word_size(("pref", "chunk", 0)) + (c + 1)
    return wk, wv, peak, int(seg.size) + 2 * n_machines


@columnar_op("prefix_min_reduce")
def _prefix_min_reduce(keys, values, params, n_machines):
    gm = column(keys, values, T_GLOBMIN)
    wk = pack(T_MINPREF, np.zeros(1, dtype=np.int64))
    peak = _scalar_write(("minprefix",))
    return wk, np.asarray([gm.min()], dtype=values.dtype), peak, int(gm.size)


# ======================================================================
# Sample sort ops (mirrors primitives/sort.py round for round)
# ======================================================================

@columnar_op("sort_local")
def _sort_local(keys, values, params, n_machines):
    bounds, spc, samp_off = params["bounds"], params["spc"], params["samp_off"]
    x = column(keys, values, T_IN)
    wk_parts, wv_parts = [], []
    reads = 0
    for j in range(n_machines):
        run = np.sort(x[bounds[j] : bounds[j + 1]], kind="stable")
        wk_parts.append(pack(T_RUN, np.arange(bounds[j], bounds[j + 1], dtype=np.int64)))
        wv_parts.append(run)
        step = max(1, run.size // spc)
        samples = run[::step][:spc]
        wk_parts.append(
            pack(T_SAMP, samp_off[j] + np.arange(samples.size, dtype=np.int64))
        )
        wv_parts.append(samples)
        reads += run.size
    # payload + the ("run", j) list write (the samples write is smaller)
    c = max(bounds[j + 1] - bounds[j] for j in range(n_machines))
    peak = 1 + word_size(("run", 0)) + (c + 1)
    return np.concatenate(wk_parts), np.concatenate(wv_parts), peak, reads


@columnar_op("sort_pivots")
def _sort_pivots(keys, values, params, n_machines):
    n_buckets = params["n_buckets"]
    samples = np.sort(column(keys, values, T_SAMP), kind="stable")
    step = max(1, samples.size // n_buckets)
    pivots = samples[step::step][: n_buckets - 1]
    wk = pack(T_PIV, np.arange(pivots.size, dtype=np.int64))
    # every sample held, plus the ("pivots",) list write
    peak = int(samples.size) + word_size(("pivots",)) + int(pivots.size) + 1
    return wk, pivots, peak, int(samples.size)


@columnar_op("sort_partition")
def _sort_partition(keys, values, params, n_machines):
    bounds, n_chunks = params["bounds"], params["n_chunks"]
    n_buckets = params["n_buckets"]
    run_col = column(keys, values, T_RUN)
    pivots = column(keys, values, T_PIV)
    wk_parts, wv_parts = [], []
    reads = 0
    longest_seg = 0
    for j in range(n_machines):
        run = run_col[bounds[j] : bounds[j + 1]]
        cuts = np.searchsorted(run, pivots, side="right")
        edges = np.concatenate([[0], cuts, [run.size]])
        sizes = np.diff(edges)
        wk_parts.append(
            pack(T_SEGSZ, np.arange(n_buckets, dtype=np.int64) * n_chunks + j)
        )
        wv_parts.append(sizes)
        longest_seg = max(longest_seg, int(sizes.max()))
        reads += run.size + pivots.size
    # payload + the held run + the pivots read, or payload + one
    # ("seg", b, j, k) piece write; the segsize/segpieces writes are smaller
    r = max(bounds[j + 1] - bounds[j] for j in range(n_machines))
    piece = min(PIECE_WORDS, longest_seg)
    peak = max(
        1 + (r + 1) + (int(pivots.size) + 1),
        1 + word_size(("seg", 0, 0, 0)) + (piece + 1),
    )
    return np.concatenate(wk_parts), np.concatenate(wv_parts), peak, reads


@columnar_op("sort_bucket_offsets")
def _sort_bucket_offsets(keys, values, params, n_machines):
    n_buckets, n_chunks = params["n_buckets"], params["n_chunks"]
    segsz = column(keys, values, T_SEGSZ)
    totals = (
        segsz.reshape(n_buckets, n_chunks).sum(axis=1)
        if segsz.size
        else np.zeros(n_buckets, dtype=values.dtype)
    )
    off = np.concatenate([[0], np.cumsum(totals[:-1])])
    wk = pack(T_BOFF, np.arange(n_buckets, dtype=np.int64))
    peak = n_buckets + _scalar_write(("bucketoff", 0))
    return wk, np.asarray(off, dtype=values.dtype), peak, int(segsz.size)


def _gather_sources(keys, values, sources):
    parts = [
        column(keys, values, tag)[start : start + length]
        for tag, start, length in sources
    ]
    return np.concatenate(parts) if parts else np.empty(0, dtype=values.dtype)


def _merge(keys, values, sources):
    """Stable k-way merge of ``sources``: ``(merged, live, loaded)``.

    The object merge streams each source as pieces of ``PIECE_WORDS``
    scalars and holds only the current piece of each live source
    (``len + 1`` words; none once the source is exhausted).  Its emit
    buffer is not held, so its peak is either the moment every first
    piece is loaded or a full output piece's write on top of the pieces
    live at that moment.  ``live`` is the held words just after each
    element is emitted (refill included); ``loaded`` is the words held
    once every first piece is in.
    """
    cat = _gather_sources(keys, values, sources)
    order = np.argsort(cat, kind="stable")
    lengths = np.asarray([length for _, _, length in sources], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    src = np.repeat(np.arange(lengths.size), lengths)[order]
    consumed = order - starts[src] + 1
    src_len = lengths[src]

    def held(c):
        piece = np.minimum(PIECE_WORDS, src_len - (c // PIECE_WORDS) * PIECE_WORDS)
        return np.where(c == src_len, 0, piece + 1)

    loaded = int((np.minimum(PIECE_WORDS, lengths) + 1).sum())
    live = loaded + np.cumsum(held(consumed) - held(consumed - 1))
    return cat[order], live, loaded


def _merge_peak(live, loaded, out_piece: int, key_words: int) -> int:
    """Object merge peak emitting ``out_piece``-scalar pieces under keys
    of ``key_words``: a full piece is written when emitting element
    ``out_piece``, ``2 * out_piece``, ...; the last, partial piece once
    every source is released."""
    peak = loaded
    if live.size > out_piece:
        at_writes = int(live[out_piece::out_piece].max())
        peak = max(peak, at_writes + key_words + out_piece + 1)
    last = (live.size - 1) % out_piece + 1
    return max(peak, key_words + last + 1)


@columnar_op("sort_merge_level")
def _sort_merge_level(keys, values, params, n_machines):
    groups, out_tag = params["groups"], params["out_tag"]
    wk_parts, wv_parts = [], []
    peak = 0
    reads = 0
    mseg_key = word_size(("mseg", 0, 0, 0, 0))
    for g in range(n_machines):
        sources, out_start = groups[g]
        merged, live, loaded = _merge(keys, values, sources)
        wk_parts.append(
            pack(out_tag, out_start + np.arange(merged.size, dtype=np.int64))
        )
        wv_parts.append(merged)
        peak = max(peak, _merge_peak(live, loaded, PIECE_WORDS, mseg_key))
        reads += merged.size
    return np.concatenate(wk_parts), np.concatenate(wv_parts), peak, reads


@columnar_op("sort_final_merge")
def _sort_final_merge(keys, values, params, n_machines):
    buckets = params["buckets"]  # machine b -> list of sources
    out_chunk = params["out_chunk"]
    boff = column(keys, values, T_BOFF)
    outpiece_key = word_size(("outpiece", 0))
    wk_parts, wv_parts = [], []
    peak = 2  # payload + the ("bucketoff", b) read
    reads = 0
    for b in range(n_machines):
        if not buckets[b]:
            reads += 1
            continue
        merged, live, loaded = _merge(keys, values, buckets[b])
        start = int(boff[b])
        wk_parts.append(pack(T_OUT, start + np.arange(merged.size, dtype=np.int64)))
        wv_parts.append(merged)
        peak = max(peak, 1 + _merge_peak(live, loaded, out_chunk, outpiece_key))
        reads += merged.size + 1
    if not wk_parts:
        return _empty(values.dtype)
    return np.concatenate(wk_parts), np.concatenate(wv_parts), peak, reads


# ======================================================================
# List ranking ops (mirrors primitives/listrank.py round for round)
# ======================================================================

@columnar_op("lr_mark")
def _lr_mark(keys, values, params, n_machines):
    idxs = np.asarray(params["idxs"], dtype=np.int64)
    wk = pack(params["out_tag"], idxs)
    peak = 1 + _scalar_write(("anchor", 0, 0))
    return wk, np.ones(idxs.size, dtype=np.int64), peak, 0


@columnar_op("lr_zero_rank")
def _lr_zero_rank(keys, values, params, n_machines):
    idxs = np.asarray(params["idxs"], dtype=np.int64)
    peak = 1 + _scalar_write(("rank", 0))
    return pack(T_RANK, idxs), np.zeros(idxs.size, dtype=np.int64), peak, 0


@columnar_op("lr_contract")
def _lr_contract(keys, values, params, n_machines):
    succ_tag, w_tag = params["succ_tag"], params["w_tag"]
    anchor_tag = params["anchor_tag"]
    v = np.asarray(params["next_idxs"], dtype=np.int64)
    # Mirrors the object walk: u = succ[v]; w = w[v]; while u is not an
    # anchor (tails are always anchors, so u only hits None when v is a
    # tail itself): total += w; w = w[u]; u = succ[u]; finally add w.
    u = column_get(keys, values, succ_tag, v)
    w = column_get(keys, values, w_tag, v)
    tot = np.zeros(v.size, dtype=np.int64)
    reads = 2 * v.size
    anch = _masked_get(keys, values, anchor_tag, u, 0) != 0
    active = (u >= 0) & ~anch
    steps = 0
    limit = params["max_steps"]
    while active.any():
        steps += 1
        if steps > limit:
            raise ValueError("list has no tail; input must be acyclic")
        ai = np.flatnonzero(active)
        tot[ai] += w[ai]
        w[ai] = column_get(keys, values, w_tag, u[ai])
        u[ai] = column_get(keys, values, succ_tag, u[ai])
        reads += 3 * ai.size
        anch_a = _masked_get(keys, values, anchor_tag, u[ai], 0) != 0
        active[ai] = (u[ai] >= 0) & ~anch_a
    reached = u >= 0
    tot = np.where(reached, tot + w, 0)
    wk = np.concatenate(
        [pack(params["out_succ_tag"], v), pack(params["out_w_tag"], v)]
    )
    wv = np.concatenate([u, tot])
    # payload + one ("succ"/"w", lvl, v) write; the walk reads scalars
    return wk, wv, 1 + _scalar_write(("succ", 0, 0)), int(reads)


@columnar_op("lr_base")
def _lr_base(keys, values, params, n_machines):
    succ_tag, w_tag = params["succ_tag"], params["w_tag"]
    top = np.asarray(params["top_idxs"], dtype=np.int64)
    if top.size == 0:
        return _empty(values.dtype)
    # rank[v] = sum of w along the chain from v, excluding the tail's 0.
    cur = top.copy()
    tot = np.zeros(top.size, dtype=np.int64)
    nxt = column_get(keys, values, succ_tag, cur)
    active = nxt >= 0
    reads = top.size
    for _ in range(top.size + 1):
        if not active.any():
            break
        ai = np.flatnonzero(active)
        tot[ai] += column_get(keys, values, w_tag, cur[ai])
        cur[ai] = nxt[ai]
        nxt_a = column_get(keys, values, succ_tag, cur[ai])
        reads += 2 * ai.size
        active[ai] = nxt_a >= 0
        nxt[ai] = nxt_a
    else:
        raise ValueError("list has a cycle; input must be acyclic")
    # the object machine holds 3 words per node, then writes each rank
    peak = 3 * int(top.size) + _scalar_write(("rank", 0))
    return pack(T_RANK, top), tot, peak, int(reads)


@columnar_op("lr_unwind")
def _lr_unwind(keys, values, params, n_machines):
    succ_tag, w_tag = params["succ_tag"], params["w_tag"]
    v = np.asarray(params["pending_idxs"], dtype=np.int64)
    # Mirrors: total = 0; u = v; while rank[u] unknown: total += w[u];
    # u = succ[u]; if u is None -> rank 0 tail; else rank[v] = total + rank[u].
    res = np.zeros(v.size, dtype=np.int64)
    tot = np.zeros(v.size, dtype=np.int64)
    u = v.copy()
    pending = np.arange(v.size)
    reads = 0
    limit = params["max_steps"]
    steps = 0
    while pending.size:
        steps += 1
        if steps > limit:
            raise ValueError("list has a cycle; input must be acyclic")
        up = u[pending]
        tot[pending] += column_get(keys, values, w_tag, up)
        up = column_get(keys, values, succ_tag, up)
        u[pending] = up
        reads += 2 * pending.size
        tail = up < 0
        rk = _masked_get(keys, values, T_RANK, up, _SENTINEL)
        known = rk != _SENTINEL
        reads += pending.size
        done = tail | known
        di = pending[done]
        res[di] = tot[di] + np.where(tail[done], 0, rk[done])
        pending = pending[~done]
    return pack(T_RANK, v), res, 1 + _scalar_write(("rank", 0)), int(reads)
