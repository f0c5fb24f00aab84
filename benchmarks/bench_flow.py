"""Gomory–Hu builds: the frozen recursive Dinic vs the iterative one.

``tests/dinic_reference.py`` keeps ``DinicSolver`` as it was when its
blocking flow recursed: linked arc lists, a full BFS per phase, a
separate reachability pass for the cut side and a per-call recursion-
limit raise.  The current solver walks an explicit path stack and
performs the same augmentations in the same order.  This benchmark
times Gusfield's ``n - 1`` max-flows (``gomory_hu_tree``) on both
solvers over the served benchmark's shapes -- planted and clustered
graphs at n=64 and n=256 -- asserts the two trees are edge-for-edge
identical, and gates the n=256 builds at >= 2x.  Both sides are
single-threaded, so the ratio holds on a 1–2 CPU host.  Results go to
the path in the ``BENCH_PR23`` env var (``BENCH_PR23.json`` when
unset).

Run: ``PYTHONPATH=src python -m pytest -q benchmarks/bench_flow.py``
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

import dinic_reference as ref  # noqa: E402

from repro.analysis.harness import ExperimentReport  # noqa: E402
from repro.flow import gomory_hu as gh  # noqa: E402
from repro.flow import gomory_hu_tree  # noqa: E402
from repro.workloads import clustered_community, planted_cut  # noqa: E402

_FLOOR = 2.0
_GATED_N = 256
_RESULTS_PATH = os.environ.get("BENCH_PR23", ".bench/BENCH_PR23.json")

#: (name, graph factory, repeats); the served benchmark's shapes
_WORKLOADS = (
    ("planted_64", lambda: planted_cut(64, seed=3).graph, 5),
    ("clustered_64",
     lambda: clustered_community(64, intra_p=24 / 64, seed=3).graph, 5),
    ("planted_256", lambda: planted_cut(256, seed=3).graph, 3),
    ("clustered_256",
     lambda: clustered_community(256, intra_p=24 / 256, seed=3).graph, 3),
)


def _best_of(fn, repeats):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _reference_build(g):
    """``gomory_hu_tree`` with the recursive solver as its engine."""
    engines = gh._FLOW_ENGINES
    saved = engines["dinic"]
    engines["dinic"] = ref.DinicSolver
    try:
        return gomory_hu_tree(g)
    finally:
        engines["dinic"] = saved


def test_gomory_hu_build_speedup(report_sink):
    report = ExperimentReport(
        experiment="Gomory–Hu build: recursive Dinic vs iterative Dinic",
        columns=["graph", "n", "m", "old_ms", "new_ms", "speedup"],
    )
    results = {
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "call": "gomory_hu_tree(g)  # Gusfield, n - 1 max-flows",
        "floor": _FLOOR,
        "gated_n": _GATED_N,
    }
    for name, make, repeats in _WORKLOADS:
        g = make()
        old, old_s = _best_of(lambda: _reference_build(g), repeats)
        new, new_s = _best_of(lambda: gomory_hu_tree(g), repeats)
        assert new.edges == old.edges, name
        results[name] = {
            "n": g.num_vertices,
            "m": g.num_edges,
            "old_s": old_s,
            "new_s": new_s,
            "speedup": old_s / new_s,
        }
        report.rows.append([
            name, g.num_vertices, g.num_edges, round(old_s * 1e3, 2),
            round(new_s * 1e3, 2), round(old_s / new_s, 2),
        ])

    with open(_RESULTS_PATH, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit(report_sink, report)
    for name, _, _ in _WORKLOADS:
        row = results[name]
        if row["n"] == _GATED_N:
            assert row["speedup"] >= _FLOOR, (name, row["speedup"])
