"""Property-style tests for the columnar DHT and the sample splitter.

Mirrors ``test_dht_merge_fuzz.py`` for the columnar tier:

* :class:`~repro.ampc.dht.ColumnTable` fuzzed against a plain dict
  reference over random ``put_many`` / ``merge_columns`` / lookup
  interleavings (last-writer-wins, ``"min"`` / ``"sum"`` combiners,
  word accounting, execution-order independence);
* the ``sort_partition`` splitter op checked against an independent
  per-element count — every chunk's segment sizes must equal the number
  of elements each pivot interval actually contains;
* the full columnar sample sort on adversarial value distributions.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.ampc import AMPCConfig, MissingKeyError, RoundLedger
from repro.ampc.columnar import OPS, T_IN, T_PIV, T_RUN, T_SEGSZ, pack
from repro.ampc.dht import ColumnTable
from repro.ampc.primitives import ampc_sort

TRIALS = range(20)


def _random_batch(rng: random.Random, key_pool: int):
    size = rng.randint(0, 12)
    keys = [rng.randrange(key_pool) for _ in range(size)]
    values = [rng.randrange(-500, 500) for _ in range(size)]
    return keys, values


def _round_buffer(batches):
    """One round's write buffer: per-machine batches in machine order."""
    return (
        [k for keys, _ in batches for k in keys],
        [v for _, values in batches for v in values],
    )


class TestColumnTableFuzz:
    def test_put_many_matches_dict_reference(self):
        for trial in TRIALS:
            rng = random.Random(100 + trial)
            table = ColumnTable("H")
            ref: dict[int, int] = {}
            for _ in range(rng.randint(1, 8)):
                keys, values = _random_batch(rng, key_pool=10)
                table.put_many(keys, values)
                # Within one batch later entries win, like dict updates.
                ref.update(zip(keys, values))
            assert dict(table.items()) == ref, f"trial {trial}"
            assert table.words == 2 * len(ref), f"trial {trial}: words"
            probe = np.array(sorted(ref) or [0], dtype=np.int64)
            if ref:
                got = table.get_many(probe)
                assert got.tolist() == [ref[k] for k in probe.tolist()]
            assert table.contains_many(
                np.arange(10, dtype=np.int64)
            ).tolist() == [k in ref for k in range(10)]

    @pytest.mark.parametrize("combiner", [None, "min", "sum"])
    def test_merge_columns_matches_dict_reference(self, combiner):
        for trial in TRIALS:
            rng = random.Random(200 + trial)
            batches = [
                _random_batch(rng, key_pool=6)
                for _ in range(rng.randint(1, 6))
            ]
            pre_keys, pre_values = _random_batch(rng, key_pool=6)

            table = ColumnTable("H")
            table.put_many(pre_keys, pre_values)
            ref = dict(zip(pre_keys, pre_values))
            table.merge_columns(_round_buffer(batches), combiner=combiner)

            fold = {None: lambda a, b: b, "min": min, "sum": lambda a, b: a + b}[
                combiner
            ]
            for keys, values in batches:
                for k, v in zip(keys, values):
                    ref[k] = fold(ref[k], v) if k in ref else v
            assert dict(table.items()) == ref, f"trial {trial}"
            assert table.words == 2 * len(ref)

    @pytest.mark.parametrize("combiner", ["min", "sum"])
    def test_merge_independent_of_execution_order(self, combiner):
        # Order-independent combiners: shuffling which machine "ran"
        # first must not change the merged table, as long as buffers
        # are handed over in machine-index order (the round contract).
        for trial in TRIALS:
            rng = random.Random(300 + trial)
            batches = [_random_batch(rng, key_pool=5) for _ in range(5)]

            def merged(batch_order):
                t = ColumnTable("H")
                executed = {m: batches[m] for m in batch_order}
                t.merge_columns(
                    _round_buffer([executed[m] for m in range(len(batches))]),
                    combiner=combiner,
                )
                return list(t.items())

            reference = merged(list(range(len(batches))))
            for _ in range(4):
                order = list(range(len(batches)))
                rng.shuffle(order)
                assert merged(order) == reference, f"trial {trial}"

    def test_get_many_missing_raises_with_key(self):
        table = ColumnTable("H3")
        table.put_many([1, 2], [10, 20])
        with pytest.raises(MissingKeyError) as exc:
            table.get_many(np.array([1, 7], dtype=np.int64))
        assert exc.value.key == 7
        assert exc.value.table == "H3"

    def test_get_many_default_fills_missing(self):
        table = ColumnTable("H")
        table.put_many([4], [44])
        out = table.get_many(np.array([3, 4], dtype=np.int64), default=-1)
        assert out.tolist() == [-1, 44]

    def test_carry_forward_preserves_unwritten_keys(self):
        prev = ColumnTable("H0")
        prev.put_many([1, 2, 3], [10, 20, 30])
        nxt = ColumnTable("H1")
        nxt.put_many([2], [99])
        nxt.carry_forward(prev.snapshot())
        assert dict(nxt.items()) == {1: 10, 2: 99, 3: 30}

    def test_float_table_rejects_missing_dtype(self):
        with pytest.raises(ValueError):
            ColumnTable("H", value_dtype=np.int32)


class TestSplitterProperty:
    def _columns(self, entries):
        """Build sorted (keys, values) columns from (key, value) pairs."""
        keys = np.array([k for k, _ in entries], dtype=np.int64)
        values = np.array([v for _, v in entries], dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        return keys[order], values[order]

    def test_partition_sizes_match_pivot_interval_counts(self):
        # Independent reference: bucket b of chunk j must hold exactly
        # the elements x of that chunk with pivots[b-1] < x <= pivots[b]
        # (open below, closed above — searchsorted side="right").
        for trial in TRIALS:
            rng = random.Random(400 + trial)
            n = rng.randint(1, 60)
            raw = [rng.randrange(20) for _ in range(n)]
            n_chunks = rng.randint(1, 4)
            step = -(-n // n_chunks)
            bounds = list(range(0, n, step)) + [n]
            n_chunks = len(bounds) - 1
            pivots = sorted(rng.sample(range(20), rng.randint(0, 3)))
            n_buckets = len(pivots) + 1

            entries = []
            for j in range(n_chunks):
                chunk = sorted(raw[bounds[j] : bounds[j + 1]])
                for i, v in enumerate(chunk, start=bounds[j]):
                    entries.append((int(pack(T_RUN, i)), v))
            for i, p in enumerate(pivots):
                entries.append((int(pack(T_PIV, i)), p))
            keys, values = self._columns(entries)

            wk, wv, _, _ = OPS["sort_partition"](
                keys,
                values,
                {"bounds": bounds, "n_chunks": n_chunks, "n_buckets": n_buckets},
                n_chunks,
            )
            segsz = dict(zip(wk.tolist(), wv.tolist()))
            lo_piv = [None] + pivots
            hi_piv = pivots + [None]
            for j in range(n_chunks):
                chunk = raw[bounds[j] : bounds[j + 1]]
                for b in range(n_buckets):
                    expect = sum(
                        1
                        for x in chunk
                        if (lo_piv[b] is None or x > lo_piv[b])
                        and (hi_piv[b] is None or x <= hi_piv[b])
                    )
                    got = segsz[int(pack(T_SEGSZ, b * n_chunks + j))]
                    assert got == expect, (
                        f"trial {trial}: chunk {j} bucket {b}"
                    )
                assert (
                    sum(segsz[int(pack(T_SEGSZ, b * n_chunks + j))]
                        for b in range(n_buckets))
                    == len(chunk)
                ), f"trial {trial}: chunk {j} sizes do not cover the chunk"

    @pytest.mark.parametrize(
        "name,values",
        [
            ("all_equal", [7] * 200),
            ("sorted", list(range(150))),
            ("reversed", list(range(150, 0, -1))),
            ("few_distinct", [i % 3 for i in range(180)]),
            ("negatives", [(-1) ** i * i for i in range(160)]),
        ],
    )
    def test_columnar_sort_adversarial_distributions(self, name, values):
        ledger = RoundLedger()
        out = ampc_sort(
            AMPCConfig(n_input=len(values)),
            values,
            ledger=ledger,
        )
        assert out == sorted(values), name
        assert ledger.rounds > 0


def test_pack_keys_are_unique_per_tag_index():
    rng = random.Random(7)
    seen = set()
    for _ in range(2000):
        tag, idx = rng.randrange(1, 600), rng.randrange(1 << 30)
        seen.add(int(pack(tag, idx)))
    # Collisions would silently cross-write logical columns.
    assert int(pack(T_IN, 0)) != int(pack(T_RUN, 0))
    assert len(seen) >= 1990  # allow rng duplicates of (tag, idx) itself
