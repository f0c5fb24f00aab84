"""E10 — Theorems 4-5, Lemmas 4-6: every primitive runs in O(1/eps) rounds.

Regenerates the primitive round-cost table: measured rounds for sort,
prefix/min-prefix (Theorem 5), list ranking, forest rooting (Lemma 4)
and the Lemma-14 sweep across input sizes — constant in n.  The
benchmarked kernel is the distributed sort at n=4096.
"""

import random

import numpy as np
from conftest import emit

from repro.ampc import AMPCConfig, RoundLedger
from repro.ampc.primitives import (
    ampc_list_rank,
    ampc_min_prefix_sum,
    ampc_root_forest,
    ampc_sort,
)
from repro.analysis.harness import ExperimentReport
from repro.core.sweep import min_interval_overlap_ampc
from repro.workloads import random_tree


def test_e10_primitive_rounds_report(report_sink, benchmark):
    report = ExperimentReport(
        experiment="E10: primitive round costs (O(1/eps), constant in n)",
        columns=["primitive", "n", "rounds", "local_peak", "budget"],
    )
    rng = random.Random(10)
    for n in (256, 1024, 4096):
        cfg = AMPCConfig(n_input=n, eps=0.5)
        led = RoundLedger()
        ampc_sort(cfg, [rng.random() for _ in range(n)], ledger=led)
        report.rows.append(
            ["sample sort", n, led.rounds, led.local_peak, cfg.local_memory_words]
        )
        led = RoundLedger()
        ampc_min_prefix_sum(
            cfg, [rng.randint(-5, 5) for _ in range(n)], ledger=led
        )
        report.rows.append(
            ["min prefix sum (Thm 5)", n, led.rounds, led.local_peak,
             cfg.local_memory_words]
        )
        led = RoundLedger()
        succ = {i: i + 1 for i in range(n - 1)}
        succ[n - 1] = None
        ampc_list_rank(cfg, succ, ledger=led)
        report.rows.append(
            ["list ranking", n, led.rounds, led.local_peak, cfg.local_memory_words]
        )
    for n in (128, 256):
        cfg = AMPCConfig(n_input=n, eps=0.5)
        led = RoundLedger()
        vs, es = random_tree(n, seed=n)
        ampc_root_forest(cfg, vs, es, ledger=led)
        report.rows.append(
            ["forest rooting (Lem 4)", n, led.rounds, led.local_peak,
             cfg.local_memory_words]
        )
    cfg = AMPCConfig(n_input=512, eps=0.5)
    led = RoundLedger()
    starts = np.arange(0, 500, 2)
    min_interval_overlap_ampc(
        cfg, starts, starts + 5, np.ones(starts.size), 510, ledger=led
    )
    report.rows.append(
        ["interval sweep (Lem 14)", 512, led.rounds, led.local_peak,
         cfg.local_memory_words]
    )
    emit(report_sink, report)

    # constant rounds per primitive family, budgets respected
    by_family: dict = {}
    for fam, n, rounds, peak, budget in report.rows:
        by_family.setdefault(fam, []).append(rounds)
        assert peak <= budget
    for fam, rounds in by_family.items():
        assert max(rounds) - min(rounds) <= 10, (fam, rounds)

    rng2 = random.Random(11)
    cfg = AMPCConfig(n_input=4096, eps=0.5)
    xs = [rng2.random() for _ in range(4096)]
    out = benchmark(lambda: ampc_sort(cfg, xs))
    assert out == sorted(xs)
