"""Columnar round specs: the vectorized execution path of the runtime.

The object path runs machine *programs* — Python closures reading and
writing one key at a time.  Closures cannot cross a spawn boundary, and
every element pays interpreter dispatch.  The columnar path replaces the closures with **round
specs**: a named op from the registry below plus a small picklable
``params`` dict.  Round state lives in a :class:`~repro.ampc.dht.ColumnTable`
whose two int64/float64 columns are the entire snapshot — exactly what
the shm backend publishes zero-copy to its persistent spawn pool.

Identity packing
----------------
Object-path keys are tuples like ``("succ", lvl, v)``.  Columnar keys
pack a small integer *tag* (which logical column) and an *index*
(which element) into one int64::

    key = (tag << IDX_BITS) | index        0 <= index < 2**IDX_BITS

A whole logical column is therefore one contiguous slice of the sorted
key column (:func:`column`), and sparse lookups are one
``searchsorted`` (:func:`column_get`).

Op contract
-----------
``op(keys, values, params, lo, hi) -> (write_keys, write_values,
peak_words, reads)`` executes virtual machines ``lo..hi`` of the round
against the snapshot columns and returns its buffered writes plus
ledger stats.  Ops must only *read* the snapshot (the arrays are
flagged read-only) and must emit writes in machine order, mirroring
the object path's per-machine write buffers — the runtime merges slice
results in machine-index order, same canonical rule as
:func:`repro.ampc.dht.merge_writes`.

Every op mirrors its object-path counterpart's *round structure*: the
same host control flow issues the same number of rounds with the same
reason strings, and outputs are bit-identical — that is what the
differential harness (``tests/test_columnar_equivalence.py``) checks.
Ledger *words/queries* are recomputed from array sizes and may differ
from the object path within a documented tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: bits reserved for the element index inside a packed int64 key
IDX_BITS = 38

_SENTINEL = np.int64(np.iinfo(np.int64).min // 2)


def pack(tag: int, idx: Any) -> Any:
    """Pack ``(tag, index)`` identities into int64 key space."""
    return (np.int64(tag) << IDX_BITS) | np.asarray(idx, dtype=np.int64)


def column(keys: np.ndarray, values: np.ndarray, tag: int) -> np.ndarray:
    """The contiguous value slice of logical column ``tag`` (index order)."""
    lo = np.searchsorted(keys, np.int64(tag) << IDX_BITS)
    hi = np.searchsorted(keys, np.int64(tag + 1) << IDX_BITS)
    return values[lo:hi]


def column_get(
    keys: np.ndarray,
    values: np.ndarray,
    tag: int,
    idx: np.ndarray,
    default: Any = None,
) -> np.ndarray:
    """Sparse lookup of ``column[tag][idx]``; missing keys get ``default``.

    With ``default=None`` a missing key raises ``KeyError`` — columnar
    ops only look up identities the mirrored object program would have
    read, so a miss is a bug, not data.
    """
    want = pack(tag, idx)
    pos = np.searchsorted(keys, want)
    pos_c = np.minimum(pos, max(0, keys.size - 1))
    if keys.size:
        found = (pos < keys.size) & (keys[pos_c] == want)
    else:
        found = np.zeros(want.shape, dtype=bool)
    if found.all():
        return values[pos_c]
    if default is None:
        raise KeyError(int(want[~found][0]))
    out = np.full(want.shape, default, dtype=values.dtype)
    out[found] = values[pos_c[found]]
    return out


def _masked_get(keys, values, tag, idx, default):
    """``column_get`` that passes ``-1`` indices through as ``default``."""
    idx = np.asarray(idx, dtype=np.int64)
    safe = np.where(idx < 0, 0, idx)
    out = column_get(keys, values, tag, safe, default=default)
    return np.where(idx < 0, np.asarray(default, dtype=out.dtype), out)


@dataclass
class ColumnSliceResult:
    """One machine slice's contribution to a columnar round."""

    lo: int
    hi: int
    write_keys: np.ndarray
    write_values: np.ndarray
    peak_words: int = 0
    reads: int = 0


ColumnOp = Callable[
    [np.ndarray, np.ndarray, dict, int, int],
    tuple[np.ndarray, np.ndarray, int, int],
]

OPS: dict[str, ColumnOp] = {}


def columnar_op(name: str) -> Callable[[ColumnOp], ColumnOp]:
    def register(fn: ColumnOp) -> ColumnOp:
        OPS[name] = fn
        return fn

    return register


def execute_column_slice(
    op: str,
    keys: np.ndarray,
    values: np.ndarray,
    params: dict,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Run machines ``lo..hi`` of a columnar round spec.

    The single entry point shared by the shm backend's pool workers and
    its in-process fast path — a spawn worker needs to import only this
    module (plus numpy) to execute any round.
    """
    if op not in OPS:
        raise KeyError(f"unknown columnar op {op!r}")
    wk, wv, peak, reads = OPS[op](keys, values, params, lo, hi)
    return (
        np.asarray(wk, dtype=np.int64),
        np.asarray(wv),
        int(peak),
        int(reads),
    )


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

@columnar_op("prefix_chunk_stats")
def _prefix_chunk_stats(keys, values, params, lo, hi):
    bounds = params["bounds"]
    if hi <= lo:
        return _empty(values.dtype)
    x = column(keys, values, T_X)
    elo, ehi = bounds[lo], bounds[hi]
    seg = x[elo:ehi]
    starts = np.asarray(bounds[lo:hi], dtype=np.int64) - elo
    cs = np.cumsum(seg)
    # running prefix within each chunk: global cumsum minus the cumsum
    # at the chunk's start (exact for int64)
    chunk_base = np.repeat(
        np.concatenate([[0], cs[starts[1:] - 1]]) if starts.size > 1 else [0],
        np.diff(np.append(starts, ehi - elo)),
    )
    running = cs - chunk_base
    ends = np.append(starts[1:], ehi - elo) - 1
    totals = running[ends]
    locmin = np.minimum.reduceat(running, starts)
    machine = np.arange(lo, hi, dtype=np.int64)
    wk = np.concatenate([pack(T_TOT_BASE + 0, machine), pack(T_LOCMIN, machine)])
    wv = np.concatenate([totals, locmin])
    peak = int(np.diff(np.asarray(bounds[lo : hi + 1])).max()) + 4
    return wk, wv, peak, int(seg.size)


@columnar_op("prefix_group_sum")
def _prefix_group_sum(keys, values, params, lo, hi):
    cap = params["capacity"]
    src_count = params["src_count"]
    if hi <= lo:
        return _empty(values.dtype)
    src = column(keys, values, T_TOT_BASE + params["src_level"])
    child_lo, child_hi = lo * cap, min(hi * cap, src_count)
    seg = src[child_lo:child_hi]
    starts = np.arange(0, child_hi - child_lo, cap, dtype=np.int64)
    totals = np.add.reduceat(seg, starts)
    wk = pack(T_TOT_BASE + params["dst_level"], np.arange(lo, hi, dtype=np.int64))
    return wk, totals, cap + 2, int(seg.size)


@columnar_op("prefix_top_scan")
def _prefix_top_scan(keys, values, params, lo, hi):
    if hi <= lo:
        return _empty(values.dtype)
    top = params["top_level"]
    tot = column(keys, values, T_TOT_BASE + top)
    off = np.concatenate([[0], np.cumsum(tot[:-1])]) if tot.size else tot
    wk = pack(T_OFF_BASE + top, np.arange(tot.size, dtype=np.int64))
    return wk, np.asarray(off, dtype=values.dtype), int(tot.size) + 2, int(tot.size)


@columnar_op("prefix_push_down")
def _prefix_push_down(keys, values, params, lo, hi):
    cap = params["capacity"]
    lvl = params["level"]
    child_count = params["child_count"]
    if hi <= lo:
        return _empty(values.dtype)
    off = column(keys, values, T_OFF_BASE + lvl)[lo:hi]
    tot = column(keys, values, T_TOT_BASE + (lvl - 1))
    child_lo, child_hi = lo * cap, min(hi * cap, child_count)
    seg = tot[child_lo:child_hi]
    starts = np.arange(0, child_hi - child_lo, cap, dtype=np.int64)
    cs = np.cumsum(seg)
    excl = cs - seg                      # inclusive -> exclusive
    group_sizes = np.diff(np.append(starts, child_hi - child_lo))
    group_base = np.repeat(excl[starts], group_sizes)
    child_off = np.repeat(off, group_sizes) + (excl - group_base)
    wk = pack(
        T_OFF_BASE + (lvl - 1),
        np.arange(child_lo, child_hi, dtype=np.int64),
    )
    return wk, child_off, cap + 4, int(seg.size) + (hi - lo)


@columnar_op("prefix_finalize")
def _prefix_finalize(keys, values, params, lo, hi):
    bounds = params["bounds"]
    if hi <= lo:
        return _empty(values.dtype)
    x = column(keys, values, T_X)
    off = column(keys, values, T_OFF_BASE + 0)[lo:hi]
    locmin = column(keys, values, T_LOCMIN)[lo:hi]
    elo, ehi = bounds[lo], bounds[hi]
    seg = x[elo:ehi]
    starts = np.asarray(bounds[lo:hi], dtype=np.int64) - elo
    cs = np.cumsum(seg)
    chunk_base = np.repeat(
        np.concatenate([[0], cs[starts[1:] - 1]]) if starts.size > 1 else [0],
        np.diff(np.append(starts, ehi - elo)),
    )
    sizes = np.diff(np.append(starts, ehi - elo))
    pref = (cs - chunk_base) + np.repeat(off, sizes)
    machine = np.arange(lo, hi, dtype=np.int64)
    wk = np.concatenate(
        [pack(T_PREF, np.arange(elo, ehi, dtype=np.int64)), pack(T_GLOBMIN, machine)]
    )
    wv = np.concatenate([pref, off + locmin])
    peak = int(sizes.max()) * 2 + 4
    return wk, wv, peak, int(seg.size) + 2 * (hi - lo)


@columnar_op("prefix_min_reduce")
def _prefix_min_reduce(keys, values, params, lo, hi):
    if hi <= lo:
        return _empty(values.dtype)
    gm = column(keys, values, T_GLOBMIN)
    wk = pack(T_MINPREF, np.zeros(1, dtype=np.int64))
    return wk, np.asarray([gm.min()], dtype=values.dtype), 2, int(gm.size)


# ======================================================================
# Sample sort ops (mirrors primitives/sort.py round for round)
# ======================================================================

@columnar_op("sort_local")
def _sort_local(keys, values, params, lo, hi):
    bounds, spc, samp_off = params["bounds"], params["spc"], params["samp_off"]
    if hi <= lo:
        return _empty(values.dtype)
    x = column(keys, values, T_IN)
    wk_parts, wv_parts = [], []
    peak = 0
    reads = 0
    for j in range(lo, hi):
        run = np.sort(x[bounds[j] : bounds[j + 1]], kind="stable")
        wk_parts.append(pack(T_RUN, np.arange(bounds[j], bounds[j + 1], dtype=np.int64)))
        wv_parts.append(run)
        step = max(1, run.size // spc)
        samples = run[::step][:spc]
        wk_parts.append(
            pack(T_SAMP, samp_off[j] + np.arange(samples.size, dtype=np.int64))
        )
        wv_parts.append(samples)
        peak = max(peak, run.size + samples.size)
        reads += run.size
    return np.concatenate(wk_parts), np.concatenate(wv_parts), peak, reads


@columnar_op("sort_pivots")
def _sort_pivots(keys, values, params, lo, hi):
    if hi <= lo:
        return _empty(values.dtype)
    n_buckets = params["n_buckets"]
    samples = np.sort(column(keys, values, T_SAMP), kind="stable")
    step = max(1, samples.size // n_buckets)
    pivots = samples[step::step][: n_buckets - 1]
    wk = pack(T_PIV, np.arange(pivots.size, dtype=np.int64))
    return wk, pivots, int(samples.size) + 2, int(samples.size)


@columnar_op("sort_partition")
def _sort_partition(keys, values, params, lo, hi):
    bounds, n_chunks = params["bounds"], params["n_chunks"]
    n_buckets = params["n_buckets"]
    if hi <= lo:
        return _empty(values.dtype)
    run_col = column(keys, values, T_RUN)
    pivots = column(keys, values, T_PIV)
    wk_parts, wv_parts = [], []
    peak = 0
    reads = 0
    for j in range(lo, hi):
        run = run_col[bounds[j] : bounds[j + 1]]
        cuts = np.searchsorted(run, pivots, side="right")
        edges = np.concatenate([[0], cuts, [run.size]])
        sizes = np.diff(edges)
        wk_parts.append(
            pack(T_SEGSZ, np.arange(n_buckets, dtype=np.int64) * n_chunks + j)
        )
        wv_parts.append(sizes)
        peak = max(peak, run.size + pivots.size + n_buckets)
        reads += run.size + pivots.size
    return np.concatenate(wk_parts), np.concatenate(wv_parts), peak, reads


@columnar_op("sort_bucket_offsets")
def _sort_bucket_offsets(keys, values, params, lo, hi):
    if hi <= lo:
        return _empty(values.dtype)
    n_buckets, n_chunks = params["n_buckets"], params["n_chunks"]
    segsz = column(keys, values, T_SEGSZ)
    totals = (
        segsz.reshape(n_buckets, n_chunks).sum(axis=1)
        if segsz.size
        else np.zeros(n_buckets, dtype=values.dtype)
    )
    off = np.concatenate([[0], np.cumsum(totals[:-1])])
    wk = pack(T_BOFF, np.arange(n_buckets, dtype=np.int64))
    return wk, np.asarray(off, dtype=values.dtype), n_buckets * 2, int(segsz.size)


def _gather_sources(keys, values, sources):
    parts = [
        column(keys, values, tag)[start : start + length]
        for tag, start, length in sources
    ]
    return np.concatenate(parts) if parts else np.empty(0, dtype=values.dtype)


@columnar_op("sort_merge_level")
def _sort_merge_level(keys, values, params, lo, hi):
    groups, out_tag = params["groups"], params["out_tag"]
    if hi <= lo:
        return _empty(values.dtype)
    wk_parts, wv_parts = [], []
    peak = 0
    reads = 0
    for g in range(lo, hi):
        sources, out_start = groups[g]
        merged = np.sort(_gather_sources(keys, values, sources), kind="stable")
        wk_parts.append(
            pack(out_tag, out_start + np.arange(merged.size, dtype=np.int64))
        )
        wv_parts.append(merged)
        peak = max(peak, merged.size + len(sources))
        reads += merged.size
    return np.concatenate(wk_parts), np.concatenate(wv_parts), peak, reads


@columnar_op("sort_final_merge")
def _sort_final_merge(keys, values, params, lo, hi):
    buckets = params["buckets"]  # machine b -> list of sources
    if hi <= lo:
        return _empty(values.dtype)
    boff = column(keys, values, T_BOFF)
    wk_parts, wv_parts = [], []
    peak = 0
    reads = 0
    for b in range(lo, hi):
        merged = np.sort(_gather_sources(keys, values, buckets[b]), kind="stable")
        if merged.size:
            start = int(boff[b])
            wk_parts.append(pack(T_OUT, start + np.arange(merged.size, dtype=np.int64)))
            wv_parts.append(merged)
        peak = max(peak, merged.size + 2)
        reads += merged.size + 1
    if not wk_parts:
        return _empty(values.dtype)
    return np.concatenate(wk_parts), np.concatenate(wv_parts), peak, reads


# ======================================================================
# List ranking ops (mirrors primitives/listrank.py round for round)
# ======================================================================

@columnar_op("lr_mark")
def _lr_mark(keys, values, params, lo, hi):
    idxs = np.asarray(params["idxs"], dtype=np.int64)[lo:hi]
    wk = pack(params["out_tag"], idxs)
    return wk, np.ones(idxs.size, dtype=np.int64), 2, 0


@columnar_op("lr_zero_rank")
def _lr_zero_rank(keys, values, params, lo, hi):
    idxs = np.asarray(params["idxs"], dtype=np.int64)[lo:hi]
    return pack(T_RANK, idxs), np.zeros(idxs.size, dtype=np.int64), 2, 0


@columnar_op("lr_contract")
def _lr_contract(keys, values, params, lo, hi):
    succ_tag, w_tag = params["succ_tag"], params["w_tag"]
    anchor_tag = params["anchor_tag"]
    v = np.asarray(params["next_idxs"], dtype=np.int64)[lo:hi]
    if v.size == 0:
        return _empty(values.dtype)
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
    return wk, wv, 8, int(reads)


@columnar_op("lr_base")
def _lr_base(keys, values, params, lo, hi):
    succ_tag, w_tag = params["succ_tag"], params["w_tag"]
    top = np.asarray(params["top_idxs"], dtype=np.int64)
    if hi <= lo or top.size == 0:
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
    return pack(T_RANK, top), tot, 3 * int(top.size) + 2, int(reads)


@columnar_op("lr_unwind")
def _lr_unwind(keys, values, params, lo, hi):
    succ_tag, w_tag = params["succ_tag"], params["w_tag"]
    v = np.asarray(params["pending_idxs"], dtype=np.int64)[lo:hi]
    if v.size == 0:
        return _empty(values.dtype)
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
    return pack(T_RANK, v), res, 8, int(reads)
