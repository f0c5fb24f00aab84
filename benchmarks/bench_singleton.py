"""E3 — Theorem 3: exact smallest singleton cut in O(1/eps) rounds.

Regenerates the exactness-vs-oracle table (Algorithm 3 against the
naive replay) and the constant-rounds column.  The benchmarked kernel
is one Algorithm-3 run at n=256 — the paper's novel primitive.

``test_steps_3_4_speedup`` times Algorithm 3's steps 3–4 (level
table, Lemma-13 intervals, Lemma-14 sweep, minimum over levels)
old vs new on planted graphs of n = 256, 1024 and 2048: the frozen
per-edge object path (``tests/algo3_reference.py``) against the
columnar :func:`repro.core.singleton.sweep_levels`, on the same keys
and decomposition, best of several runs, asserting identical
``(weight, leader, time)``.  It also times the whole call (steps 1–4
plus witness extraction) both ways.  Both paths are single-threaded,
so the ratio holds on a 1–2 CPU host.  Results go to
``BENCH_PR16.json`` (override with the ``BENCH_PR16`` env var); the
gate is >= 2x on steps 3–4 at n=2048.

Run: ``PYTHONPATH=src python -m pytest -q
benchmarks/bench_singleton.py::test_steps_3_4_speedup``
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
from conftest import emit

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import algo3_reference as ref  # noqa: E402

from repro.analysis.harness import ExperimentReport, run_singleton_verification  # noqa: E402
from repro.core import draw_contraction_keys, smallest_singleton_cut  # noqa: E402
from repro.core.ldr import build_level_structure, keyed_tree  # noqa: E402
from repro.core.singleton import sweep_levels  # noqa: E402
from repro.trees import low_depth_decomposition  # noqa: E402
from repro.workloads import planted_cut  # noqa: E402

_SIZES = (256, 1024, 2048)
_REPEATS = 5
_SEED = 3
_RESULTS_PATH = os.environ.get("BENCH_PR16", ".bench/BENCH_PR16.json")


def test_e3_singleton_exactness_report(report_sink, benchmark):
    report = run_singleton_verification([32, 64, 128, 256], seed=3)
    emit(report_sink, report)

    for n, m, fast, slow, equal, rounds in report.rows:
        assert equal  # Algorithm 3 == replay oracle, every size
    rounds_col = [row[5] for row in report.rows]
    assert len(set(rounds_col)) == 1  # O(1/eps): independent of n

    inst = planted_cut(256, seed=3)
    keys = draw_contraction_keys(inst.graph, seed=3)
    result = benchmark(lambda: smallest_singleton_cut(inst.graph, keys))
    assert result.weight > 0


def _best_of(fn):
    best, out = float("inf"), None
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _columnar_steps_3_4(graph, keys, decomp):
    table = build_level_structure(keyed_tree(decomp, keys))
    swept = sweep_levels([(graph, table)])
    best = int(np.argmin(swept.weight))
    leader = graph.vertices()[int(swept.leader[best])]
    return float(swept.weight[best]), leader, int(swept.time[best])


def test_steps_3_4_speedup(report_sink):
    report = ExperimentReport(
        experiment="Algorithm 3 steps 3-4: per-edge object path vs columns",
        columns=["n", "m", "levels", "scope", "old_ms", "new_ms", "speedup"],
    )
    results = {
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "repeats": _REPEATS,
        "workload": f"planted_cut(n, seed={_SEED}), draw_contraction_keys(seed={_SEED})",
    }
    for n in _SIZES:
        g = planted_cut(n, seed=_SEED).graph
        keys = draw_contraction_keys(g, seed=_SEED)
        decomp, max_key = ref.steps_1_2(g, keys)

        old, old_34 = _best_of(
            lambda: ref.reference_steps_3_4(g, keys, decomp, max_key)
        )
        mst = keys.mst
        new_decomp = low_depth_decomposition(keys.vertices, rows=(mst.u, mst.v))
        new, new_34 = _best_of(
            lambda: _columnar_steps_3_4(g, keys, new_decomp)
        )
        assert new == old, (n, new, old)

        old_call, old_whole = _best_of(lambda: ref.reference_singleton(g, keys))
        res, new_whole = _best_of(lambda: smallest_singleton_cut(g, keys))
        assert (res.weight, res.leader, res.time) == old_call

        results[f"planted_{n}"] = {
            "n": n,
            "m": g.num_edges,
            "levels": decomp.height,
            "steps_3_4": {
                "old_s": old_34, "new_s": new_34, "speedup": old_34 / new_34,
            },
            "whole_call": {
                "old_s": old_whole, "new_s": new_whole,
                "speedup": old_whole / new_whole,
            },
        }
        for scope, o, w in (("steps 3-4", old_34, new_34),
                            ("whole call", old_whole, new_whole)):
            report.rows.append([
                n, g.num_edges, decomp.height, scope,
                round(o * 1e3, 2), round(w * 1e3, 2), round(o / w, 2),
            ])

    with open(_RESULTS_PATH, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")
    emit(report_sink, report)

    speedup = results["planted_2048"]["steps_3_4"]["speedup"]
    assert speedup >= 2.0, f"steps 3-4 at n=2048 only {speedup:.2f}x faster"
