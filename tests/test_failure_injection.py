"""Failure injection: the model's limits must *bite* inside real
algorithms, not only in unit-level probes.

Each test drives a full primitive or pipeline into a constrained
configuration and asserts the simulator refuses loudly (the model is
enforced) or degrades correctly (chunking keeps the answer right under
pressure).  Without these, a refactor could silently stop enforcing
the budgets and every "memory" claim in EXPERIMENTS.md would become
fiction.
"""

import pytest

from repro.ampc import AMPCConfig, RoundLedger
from repro.ampc.dht import word_size
from repro.ampc.errors import (
    AMPCError,
    MemoryLimitExceeded,
    MissingKeyError,
    TotalSpaceExceeded,
)
from repro.ampc.primitives import (
    ampc_group_by,
    ampc_list_rank,
    ampc_min_prefix_sum,
    ampc_reduce,
    ampc_sort,
)
from repro.ampc.runtime import AMPCRuntime


def tiny(n: int = 64, **kw) -> AMPCConfig:
    return AMPCConfig(n_input=n, eps=0.5, **kw)


class TestErrorHierarchy:
    def test_all_errors_are_ampc_errors(self):
        for exc in (MemoryLimitExceeded, TotalSpaceExceeded, MissingKeyError):
            assert issubclass(exc, AMPCError)

    def test_missing_key_is_also_keyerror(self):
        assert issubclass(MissingKeyError, KeyError)

    def test_memory_error_carries_accounting(self):
        err = MemoryLimitExceeded(100, 64, machine=7)
        assert err.used == 100 and err.limit == 64 and err.machine == 7
        assert "100" in str(err) and "64" in str(err)


class TestRuntimeUnderPressure:
    def test_program_reading_oversized_value_rejected(self):
        cfg = tiny()
        rt = AMPCRuntime(cfg)
        big = list(range(cfg.local_memory_words + 10))
        rt.seed([("big", big)])
        with pytest.raises(MemoryLimitExceeded):
            rt.round(
                [(lambda ctx: ctx.hold(word_size(ctx.read("big"))), None)],
                "read too much and hold it",
            )

    def test_adaptive_read_of_absent_key_raises(self):
        rt = AMPCRuntime(tiny())
        rt.seed([("present", 1)])
        with pytest.raises(MissingKeyError):
            rt.round([(lambda ctx: ctx.read("absent"), None)], "bad read")

    def test_read_default_suppresses_missing_key(self):
        rt = AMPCRuntime(tiny())
        rt.seed([("present", 1)])
        got = []
        rt.round(
            [(lambda ctx: got.append(ctx.read_default("absent", -1)), None)],
            "default read",
        )
        assert got == [-1]

    def test_total_space_budget_enforced_end_to_end(self):
        # Each machine stays within its local budget, but collectively
        # they overflow the total-space floor (1024 words): the round
        # boundary must refuse.
        cfg = AMPCConfig(n_input=16, eps=0.5, total_constant=1, total_log_power=0)
        rt = AMPCRuntime(cfg)
        rt.seed([("x", 1)])
        assert cfg.total_space_words < 2048

        def write_chunk(ctx):
            ctx.write(("chunk", ctx.payload), list(range(24)))

        with pytest.raises(TotalSpaceExceeded):
            rt.round(
                [(write_chunk, j) for j in range(80)],  # ~80*28 words
                "collective overflow",
            )

    def test_write_conflict_without_combiner_last_wins(self):
        rt = AMPCRuntime(tiny())
        rt.seed([("seed", 0)])
        rt.round(
            [
                (lambda ctx: ctx.write("k", 1), None),
                (lambda ctx: ctx.write("k", 2), None),
            ],
            "conflict",
        )
        assert rt.table.get("k") == 2

    def test_write_conflict_with_combiner_merges(self):
        rt = AMPCRuntime(tiny())
        rt.seed([("seed", 0)])
        rt.round(
            [
                (lambda ctx: ctx.write("k", 5), None),
                (lambda ctx: ctx.write("k", 3), None),
            ],
            "merge",
            combiner=min,
        )
        assert rt.table.get("k") == 3


class TestPrimitivesUnderPressure:
    """Primitives must stay *correct* at the smallest legal budgets —
    chunking pressure changes rounds, never answers."""

    def test_sort_correct_at_minimal_budget(self):
        cfg = AMPCConfig(n_input=200, eps=0.25)  # ~n^0.25 local words
        xs = [((i * 37) % 200) - 100 for i in range(200)]
        assert ampc_sort(cfg, xs) == sorted(xs)

    def test_reduce_correct_at_minimal_budget(self):
        cfg = AMPCConfig(n_input=300, eps=0.25)
        xs = [((i * 17) % 89) for i in range(300)]
        assert ampc_reduce(cfg, xs, min) == min(xs)

    def test_group_by_heavy_group_stays_within_budget(self):
        cfg = tiny(100)
        led = RoundLedger()
        pairs = [(0, i) for i in range(100)]  # one group == whole input
        groups = ampc_group_by(cfg, pairs, ledger=led)
        assert groups[0] == list(range(100))
        assert led.local_peak <= cfg.local_memory_words

    def test_min_prefix_sum_constant_rounds_under_pressure(self):
        cfg = AMPCConfig(n_input=256, eps=0.5)
        led = RoundLedger()
        xs = [1 if i % 3 else -2 for i in range(256)]
        got = ampc_min_prefix_sum(cfg, xs, ledger=led)
        acc, best = 0, float("inf")
        for x in xs:
            acc += x
            best = min(best, acc)
        assert got == best
        assert led.rounds <= 3 * cfg.rounds_per_primitive + 4

    def test_list_rank_rejects_cycles_before_filling_memory(self):
        cfg = tiny(1000)
        succ = {i: (i + 1) % 400 for i in range(400)}  # pure cycle
        with pytest.raises((ValueError, MissingKeyError, KeyError)):
            ampc_list_rank(cfg, succ)

    def test_eps_extremes_rejected_by_config(self):
        with pytest.raises(ValueError):
            AMPCConfig(n_input=100, eps=0.0)
        with pytest.raises(ValueError):
            AMPCConfig(n_input=100, eps=1.0)


class TestLedgerIntegrity:
    def test_every_charge_carries_a_citation(self):
        # End-to-end Algorithm 1 run: each charged entry must cite its
        # lemma/algorithm line (the contract in repro.ampc.ledger).
        from repro.core import ampc_min_cut
        from repro.workloads import planted_cut

        inst = planted_cut(48, seed=3)
        res = ampc_min_cut(inst.graph, seed=3, max_copies=2)
        assert res.ledger.rounds > 0
        for citation in res.ledger.citations():
            assert any(
                word in citation
                for word in ("Lemma", "Theorem", "Algorithm", "Behnezhad", "boost")
            ), f"uncited charge: {citation}"

    def test_parallel_absorb_takes_max_not_sum(self):
        a, b = RoundLedger(), RoundLedger()
        a.charge(5, "Lemma X: left branch", local_peak=10, total_peak=50)
        b.charge(3, "Lemma X: right branch", local_peak=20, total_peak=40)
        combined = RoundLedger()
        combined.absorb_parallel([a, b], "Algorithm 1: siblings")
        assert combined.rounds == 5  # max, not 8
        assert combined.local_peak == 20

    def test_measured_vs_charged_split(self):
        led = RoundLedger()
        led.measure(2, "real rounds", local_peak=1, total_peak=1)
        led.charge(3, "Lemma Y: charged rounds", local_peak=1, total_peak=1)
        assert led.measured_rounds == 2
        assert led.charged_rounds == 3
        assert led.rounds == 5


class TestShardReplies:
    def test_timed_out_reply_never_answers_the_next_request(self):
        """A shard request that times out leaves its late reply in the
        pipe; the next request on that shard must get its own answer,
        not the stale one."""
        from repro.obs import Tracer
        from repro.service import ShardPool
        from repro.workloads import planted_cut

        graph = planted_cut(64, seed=1).graph
        edges = [[u, v, w] for u, v, w in graph.edges()]
        tracer = Tracer(enabled=False)
        pool = ShardPool(2)
        try:
            status, _ = pool.dispatch(
                "graphs", {"name": "g", "edges": edges}, tracer
            )
            assert status == 200
            pool.request_timeout_s = 0.05
            status, payload = pool.dispatch(
                "sparsestcut", {"graph": "g"}, tracer
            )
            assert status == 500 and "timed out" in payload["error"]
            pool.request_timeout_s = 60.0
            status, payload = pool.dispatch(
                "stcut", {"graph": "g", "s": 0, "t": 1}, tracer
            )
            assert status == 200
            assert payload["algorithm"] == "gomory-hu"
            assert (payload["s"], payload["t"]) == (0, 1)
        finally:
            pool.close()
