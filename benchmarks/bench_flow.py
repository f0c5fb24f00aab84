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
the path in the ``BENCH_PR23`` env var (``.bench/BENCH_PR23.json`` when
unset).

A second case times flow replay (``gomory_hu_tree(h, prior=...)``,
:mod:`repro.flow.gomory_hu`): on planted and clustered n=256 it halves
one edge row at a time, rebuilds cold and from the unchanged graph's
tree, asserts both trees are edge-for-edge identical, and gates the
median speedup over the changed rows at >= 4x.  A seven-row change is
reported, not gated.  Results go to the path in the ``BENCH_PR35`` env
var (``.bench/BENCH_PR35.json`` when unset).

Run: ``PYTHONPATH=src python -m pytest -q benchmarks/bench_flow.py``
"""

import json
import os
import platform
import random
import statistics
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
_REPLAY_FLOOR = 4.0
_REPLAY_ROWS = 5  # one-row changes timed per graph
_REPLAY_PATH = os.environ.get("BENCH_PR35", ".bench/BENCH_PR35.json")

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


def _host():
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def test_gomory_hu_build_speedup(report_sink):
    report = ExperimentReport(
        experiment="Gomory–Hu build: recursive Dinic vs iterative Dinic",
        columns=["graph", "n", "m", "old_ms", "new_ms", "speedup"],
    )
    results = {
        "host": _host(),
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


def _halved(g, rows):
    h = g.copy()
    for u, v, w in rows:
        h.set_edge_weight(u, v, w / 2)
    return h


def _replay_case(g, prior, rows):
    """Cold and replayed builds after halving ``rows``, best of three."""
    h = _halved(g, rows)
    cold, cold_s = _best_of(lambda: gomory_hu_tree(h), 3)
    warm, warm_s = _best_of(lambda: gomory_hu_tree(h, prior=prior), 3)
    assert warm.edges == cold.edges, rows
    return {"cold_s": cold_s, "replay_s": warm_s,
            "speedup": cold_s / warm_s, "replayed": warm.replayed}


def test_gomory_hu_replay_speedup(report_sink):
    report = ExperimentReport(
        experiment="Gomory–Hu rebuild after a delta: cold vs replayed flows",
        columns=["graph", "n", "changed_rows", "cold_ms", "replay_ms",
                 "replayed", "speedup"],
    )
    results = {
        "host": _host(),
        "call": "gomory_hu_tree(h, prior=gomory_hu_tree(g))"
                "  # h = g with edge rows halved",
        "floor": _REPLAY_FLOOR,
        "gated": "median speedup over one-row changes",
    }
    for name, make, _ in _WORKLOADS:
        g = make()
        if g.num_vertices != _GATED_N:
            continue
        prior = gomory_hu_tree(g)
        rng = random.Random(35)
        edges = list(g.edges())
        one = [_replay_case(g, prior, [row])
               for row in rng.sample(edges, _REPLAY_ROWS)]
        seven = _replay_case(g, prior, rng.sample(edges, 7))
        results[name] = {
            "n": g.num_vertices,
            "m": g.num_edges,
            "one_row": one,
            "one_row_median_speedup": statistics.median(
                c["speedup"] for c in one),
            "seven_rows": seven,
        }
        for rows, case in [(1, c) for c in one] + [(7, seven)]:
            report.rows.append([
                name, g.num_vertices, rows, round(case["cold_s"] * 1e3, 2),
                round(case["replay_s"] * 1e3, 2), case["replayed"],
                round(case["speedup"], 2),
            ])

    with open(_REPLAY_PATH, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit(report_sink, report)
    for name, _, _ in _WORKLOADS:
        if name in results:
            speedup = results[name]["one_row_median_speedup"]
            assert speedup >= _REPLAY_FLOOR, (name, speedup)
