"""Tests for machine contexts and the round executor."""

import numpy as np
import pytest

from repro.ampc import AMPCConfig, AMPCRuntime, MemoryLimitExceeded, RoundLedger
from repro.ampc.machine import MachineContext
from repro.ampc.dht import HashTable


def make_ctx(limit=100, payload=None, table=None):
    return MachineContext(0, table or HashTable("H"), limit, payload=payload)


class TestMachineMemory:
    def test_hold_within_budget(self):
        ctx = make_ctx(limit=10)
        ctx.hold(9)
        assert ctx.peak_words == 9

    def test_hold_over_budget_raises(self):
        ctx = make_ctx(limit=10)
        with pytest.raises(MemoryLimitExceeded):
            ctx.hold(11)

    def test_release_frees_budget(self):
        ctx = make_ctx(limit=10)
        ctx.hold(8)
        ctx.release(8)
        ctx.hold(8)  # fits again

    def test_payload_charged_on_entry(self):
        with pytest.raises(MemoryLimitExceeded):
            make_ctx(limit=4, payload=list(range(100)))

    def test_peak_tracks_maximum(self):
        ctx = make_ctx(limit=100)
        ctx.hold(60)
        ctx.release(60)
        ctx.hold(10)
        assert ctx.peak_words == 60

    def test_negative_hold_rejected(self):
        ctx = make_ctx()
        with pytest.raises(ValueError):
            ctx.hold(-1)


class TestMachineIO:
    def test_read_counts_queries(self):
        table = HashTable("H")
        table.put("k", 1)
        ctx = make_ctx(table=table)
        ctx.read("k")
        ctx.read("k")
        assert ctx.reads == 2

    def test_read_charges_transient_memory(self):
        table = HashTable("H")
        table.put("k", list(range(50)))
        ctx = make_ctx(limit=10, table=table)
        with pytest.raises(MemoryLimitExceeded):
            ctx.read("k")

    def test_write_buffers_until_drained(self):
        ctx = make_ctx()
        ctx.write("a", 1)
        ctx.write("b", 2)
        assert ctx.drain_writes() == [("a", 1), ("b", 2)]
        assert ctx.drain_writes() == []

    def test_oversized_write_rejected(self):
        ctx = make_ctx(limit=10)
        with pytest.raises(MemoryLimitExceeded):
            ctx.write("k", list(range(100)))


class TestRuntime:
    def test_round_count_increments(self):
        rt = AMPCRuntime(AMPCConfig(n_input=100))
        rt.seed([("x", 1)])
        rt.round([(lambda c: c.write("y", 2), None)], "step")
        assert rt.rounds_run == 1
        assert rt.ledger.measured_rounds == 1

    def test_writes_visible_next_round_only(self):
        rt = AMPCRuntime(AMPCConfig(n_input=100))
        rt.seed([("x", 1)])
        seen_mid_round = {}

        def writer(ctx):
            ctx.write("y", 2)
            seen_mid_round["y"] = ctx.read_default("y")

        rt.round([(writer, None)], "write")
        assert seen_mid_round["y"] is None  # not yet visible
        assert rt.table.get("y") == 2  # visible after the round

    def test_combiner_merges_conflicting_writes(self):
        rt = AMPCRuntime(AMPCConfig(n_input=100))
        rt.seed([("seed", 0)])
        rt.round(
            [(lambda c, i=i: c.write("min", i), None) for i in [5, 2, 9]],
            "combine",
            combiner=min,
        )
        assert rt.table.get("min") == 2

    def test_carry_forward_preserves_untouched_keys(self):
        rt = AMPCRuntime(AMPCConfig(n_input=100))
        rt.seed([("keep", 42)])
        rt.round([(lambda c: c.write("new", 1), None)], "s", carry_forward=True)
        assert rt.table.get("keep") == 42

    def test_no_carry_forward_drops_old_keys(self):
        rt = AMPCRuntime(AMPCConfig(n_input=100))
        rt.seed([("old", 42)])
        rt.round([(lambda c: c.write("new", 1), None)], "s")
        assert not rt.table.contains("old")

    def test_ledger_records_local_peak(self):
        rt = AMPCRuntime(AMPCConfig(n_input=10_000))

        def hog(ctx):
            ctx.hold(500)
            ctx.release(500)
            ctx.write("done", 1)

        rt.seed([("x", 0)])
        rt.round([(hog, None)], "hog")
        assert rt.ledger.local_peak >= 500

    def test_shared_ledger_accumulates(self):
        led = RoundLedger()
        rt1 = AMPCRuntime(AMPCConfig(n_input=100), ledger=led)
        rt1.seed([("a", 1)])
        rt1.round([(lambda c: c.write("b", 2), None)], "one")
        rt2 = AMPCRuntime(AMPCConfig(n_input=100), ledger=led)
        rt2.seed([("c", 3)])
        rt2.round([(lambda c: c.write("d", 4), None)], "two")
        assert led.rounds == 2

    def test_collect_prefix(self):
        rt = AMPCRuntime(AMPCConfig(n_input=100))
        rt.seed([("seed", 0)])
        rt.round(
            [(lambda c, i=i: c.write(("out", i), i * i), None) for i in range(3)],
            "emit",
        )
        assert rt.collect("out") == {0: 0, 1: 1, 2: 4}


class TestColumnRound:
    """Columnar rounds run under the object path's memory check."""

    @staticmethod
    def _bucket_offsets(n_buckets: int):
        from repro.ampc.columnar import T_SEGSZ, pack

        cfg = AMPCConfig(n_input=100)
        rt = AMPCRuntime(cfg)
        # sort_bucket_offsets holds one total per bucket, then writes a
        # ("bucketoff", b) scalar: n_buckets + 5 words.
        rt.seed_columns(
            pack(T_SEGSZ, np.arange(n_buckets)),
            np.ones(n_buckets, dtype=np.int64),
        )
        rt.column_round(
            "sort_bucket_offsets",
            {"n_buckets": n_buckets, "n_chunks": 1},
            1,
            "offsets",
        )
        return rt, cfg.local_memory_words

    def test_over_budget_column_round_raises(self):
        budget = AMPCConfig(n_input=100).local_memory_words
        with pytest.raises(MemoryLimitExceeded) as exc:
            self._bucket_offsets(budget - 4)
        assert (exc.value.used, exc.value.limit) == (budget + 1, budget)

    def test_column_round_at_budget_records_true_peak(self):
        budget = AMPCConfig(n_input=100).local_memory_words
        rt, limit = self._bucket_offsets(budget - 5)
        assert rt.rounds_run == 1
        assert rt.ledger.local_peak == limit

    @pytest.mark.parametrize("eps", [0.2, 0.3, 0.5, 0.8])
    def test_columnar_primitives_stay_within_budget(self, eps):
        from repro.ampc.primitives import (
            ampc_list_rank,
            ampc_prefix_sums,
            ampc_sort,
        )

        n = 400
        cfg = AMPCConfig(n_input=n, eps=eps)
        rng = np.random.default_rng(7)
        values = [int(v) for v in rng.integers(-1000, 1000, n)]
        successor = {i: i + 1 for i in range(n - 1)}
        successor[n - 1] = None
        for run in (
            lambda led: ampc_sort(cfg, values, ledger=led),
            lambda led: ampc_prefix_sums(cfg, values, ledger=led),
            lambda led: ampc_list_rank(cfg, successor, ledger=led),
        ):
            ledger = RoundLedger()
            try:
                run(ledger)
            except MemoryLimitExceeded as exc:
                assert exc.used > exc.limit == cfg.local_memory_words
                continue
            assert 0 < ledger.local_peak <= cfg.local_memory_words
