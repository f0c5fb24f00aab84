"""Tests for the distributed hash tables and word accounting."""

import numpy as np
import pytest

from repro.ampc import (
    AMPCUsageError,
    DHTChain,
    HashTable,
    MissingKeyError,
    TotalSpaceExceeded,
    word_size,
)
from repro.ampc.dht import merge_writes


class TestWordSize:
    def test_scalars_are_one_word(self):
        assert word_size(5) == 1
        assert word_size(3.14) == 1
        assert word_size(True) == 1
        assert word_size(None) == 1

    def test_short_string_one_word(self):
        assert word_size("abcd") == 1

    def test_long_string_scales(self):
        assert word_size("x" * 80) == 10

    def test_tuple_counts_elements(self):
        assert word_size((1, 2, 3)) == 4  # 1 + contents

    def test_nested_structures(self):
        assert word_size([(1, 2), (3, 4)]) == 1 + 3 + 3

    def test_dict_counts_keys_and_values(self):
        assert word_size({1: 2}) == 1 + 1 + 1

    def test_numpy_array_by_size(self):
        assert word_size(np.zeros(17)) == 17


class TestHashTable:
    def test_put_get_roundtrip(self):
        t = HashTable("H0")
        t.put("k", [1, 2, 3])
        assert t.get("k") == [1, 2, 3]

    def test_missing_key_raises(self):
        t = HashTable("H0")
        with pytest.raises(MissingKeyError):
            t.get("absent")

    def test_get_default(self):
        t = HashTable("H0")
        assert t.get_default("absent", 42) == 42

    def test_contains(self):
        t = HashTable("H0")
        t.put(("a", 1), None)
        assert t.contains(("a", 1))
        assert not t.contains(("a", 2))

    def test_word_accounting_on_put(self):
        t = HashTable("H0")
        t.put("k", (1, 2, 3))  # key 1 + value 4
        assert t.words == 5

    def test_word_accounting_on_overwrite(self):
        t = HashTable("H0")
        t.put("k", (1, 2, 3))
        t.put("k", 7)  # now key 1 + value 1
        assert t.words == 2

    def test_len_counts_entries(self):
        t = HashTable("H0")
        for i in range(100):
            t.put(i, i)
        assert len(t) == 100

    def test_items_cover_all_entries(self):
        t = HashTable("H0")
        for i in range(50):
            t.put(i, i * 2)
        assert dict(t.items()) == {i: i * 2 for i in range(50)}

    def test_overwriting_stored_none_keeps_words_exact(self):
        # Regression: a plain ``shard.get(key)`` probe cannot tell a
        # stored None from an absent key, so overwriting a None value
        # used to leak its words into the running total.
        t = HashTable("H0")
        t.put("k", None)  # key 1 + value 1
        assert t.words == 2
        t.put("k", (1, 2, 3))  # key 1 + value 4
        assert t.words == 5
        t.put("k", None)
        assert t.words == 2

    def test_merge_writes_combines_with_stored_none(self):
        # Same sentinel discipline in merge_writes: an existing None
        # must reach the combiner, not be mistaken for "absent".
        t = HashTable("H0")
        t.put("k", None)
        seen = []

        def keep_new(old, new):
            seen.append(old)
            return new

        merge_writes(t, [[("k", 9)]], combiner=keep_new)
        assert seen == [None]
        assert t.get("k") == 9


class TestDHTChain:
    def test_seed_then_read(self):
        chain = DHTChain(total_space_words=10_000)
        chain.seed([("a", 1), ("b", 2)])
        assert chain.current.get("a") == 1

    def test_advance_moves_readable_table(self):
        chain = DHTChain(total_space_words=10_000)
        chain.seed([("a", 1)])
        nxt = chain.make_next()
        nxt.put("b", 2)
        chain.advance(nxt)
        assert chain.current.get("b") == 2
        assert not chain.current.contains("a")

    def test_round_index_increments(self):
        chain = DHTChain(total_space_words=10_000)
        assert chain.round_index == 0
        chain.advance(chain.make_next())
        assert chain.round_index == 1

    def test_total_space_enforced(self):
        chain = DHTChain(total_space_words=10)
        nxt = chain.make_next()
        nxt.put("big", list(range(100)))
        with pytest.raises(TotalSpaceExceeded):
            chain.advance(nxt)

    def test_high_water_tracks_peak(self):
        chain = DHTChain(total_space_words=10_000)
        chain.seed([("a", list(range(50)))])
        peak = chain.high_water
        chain.advance(chain.make_next())  # empty next table
        assert chain.high_water == peak

    def test_seed_over_budget_raises(self):
        chain = DHTChain(total_space_words=10)
        with pytest.raises(TotalSpaceExceeded):
            chain.seed([("big", list(range(1000)))])

    def test_seed_after_advance_raises(self):
        chain = DHTChain(total_space_words=10_000)
        chain.seed([("a", 1)])
        chain.advance(chain.make_next())
        with pytest.raises(AMPCUsageError, match="after 1 round"):
            chain.seed([("b", 2)])

    def test_seed_table_after_advance_raises(self):
        chain = DHTChain(total_space_words=10_000)
        chain.advance(chain.make_next())
        with pytest.raises(AMPCUsageError):
            chain.seed_table(HashTable("H0"))

    def test_seed_table_onto_seeded_h0_raises(self):
        chain = DHTChain(total_space_words=10_000)
        chain.seed([("a", 1)])
        with pytest.raises(AMPCUsageError, match="already-seeded"):
            chain.seed_table(HashTable("H0"))
