"""Sparsest-cut local search: the frozen plain climb vs the screened one.

``tests/sparsest_reference.py`` keeps ``approx_sparsest_cut`` as it was
when it refined every start (duplicates included) and scored every
single-vertex flip with a full ``Graph.cut_weight`` pass.  The current
solver refines each distinct start once and screens flips from the CSR
rows, confirming every survivor exactly.  This benchmark times both on
the served benchmark's shapes -- planted and clustered n=256 and the
n=32 expander -- asserts their answers are identical field for field,
and gates the whole call (each side building its own Gomory–Hu tree)
at >= 3x.  It also times the new solver handed a resident tree, the
shape ``/sparsestcut`` runs once the store holds the content's tree.
Both sides are single-threaded, so the ratio holds on a 1–2 CPU host.
Results go to the path in the ``BENCH_SPARSEST`` env var
(``.bench/BENCH_sparsest.json`` when unset).

Run: ``PYTHONPATH=src python -m pytest -q benchmarks/bench_sparsest.py``
"""

import dataclasses
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

import numpy as np
from conftest import emit

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import sparsest_reference as ref  # noqa: E402

from repro.analysis.harness import ExperimentReport  # noqa: E402
from repro.analysis.sparsest import approx_sparsest_cut  # noqa: E402
from repro.flow import gomory_hu_tree  # noqa: E402
from repro.graph import Graph  # noqa: E402
from repro.workloads import (  # noqa: E402
    clustered_community,
    near_regular_expander,
    planted_cut,
)

_SEED = 1
_TRIALS = 1
_FLOOR = 3.0
_RESULTS_PATH = os.environ.get("BENCH_SPARSEST", ".bench/BENCH_sparsest.json")

#: (name, graph factory, repeats); the reference takes seconds at n=256
_WORKLOADS = (
    ("planted_256", lambda: planted_cut(256, seed=3).graph, 1),
    ("clustered_256",
     lambda: clustered_community(256, intra_p=24 / 256, seed=3).graph, 1),
    ("expander_32", lambda: near_regular_expander(32, 4, seed=2), 5),
)


def _best_of(fn, repeats):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _cut_weight_calls(fn) -> int:
    calls = [0]
    original = Graph.cut_weight

    def counted(self, side):
        calls[0] += 1
        return original(self, side)

    Graph.cut_weight = counted
    try:
        fn()
    finally:
        Graph.cut_weight = original
    return calls[0]


def test_sparsest_speedup(report_sink):
    report = ExperimentReport(
        experiment="Sparsest cut: plain climb vs screened climb (whole call)",
        columns=["graph", "n", "m", "old_ms", "new_ms", "speedup",
                 "resident_tree_ms", "old_cut_weights", "new_cut_weights"],
    )
    results = {
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "call": f"approx_sparsest_cut(g, seed={_SEED}, trials={_TRIALS})",
        "floor": _FLOOR,
    }
    fields = [f.name for f in dataclasses.fields(ref.SparsestCutResult)]
    rng = random.Random(0)
    for name, make, repeats in _WORKLOADS:
        g = make()
        old_call = lambda: ref.approx_sparsest_cut(g, seed=_SEED, trials=_TRIALS)
        new_call = lambda: approx_sparsest_cut(g, seed=_SEED, trials=_TRIALS)
        old, old_s = _best_of(old_call, repeats)
        new, new_s = _best_of(new_call, repeats)
        for f in fields:
            assert getattr(new, f) == getattr(old, f), (name, f)
        tree = gomory_hu_tree(g)
        seeds = [rng.randrange(1 << 16) for _ in range(repeats)]
        warm_s = min(
            _best_of(lambda s=s: approx_sparsest_cut(
                g, seed=s, trials=_TRIALS, tree=tree), 1)[1]
            for s in seeds
        )
        old_calls = _cut_weight_calls(old_call)
        new_calls = _cut_weight_calls(
            lambda: approx_sparsest_cut(g, seed=_SEED, trials=_TRIALS, tree=tree))
        results[name] = {
            "n": g.num_vertices,
            "m": g.num_edges,
            "whole_call": {"old_s": old_s, "new_s": new_s,
                           "speedup": old_s / new_s},
            "resident_tree_s": warm_s,
            "cut_weight_calls": {"old": old_calls, "new": new_calls},
            "starts": {"distinct": new.starts, "candidates": new.candidates},
        }
        report.rows.append([
            name, g.num_vertices, g.num_edges, round(old_s * 1e3, 2),
            round(new_s * 1e3, 2), round(old_s / new_s, 2),
            round(warm_s * 1e3, 2), old_calls, new_calls,
        ])

    with open(_RESULTS_PATH, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit(report_sink, report)
    for name, _, _ in _WORKLOADS:
        speedup = results[name]["whole_call"]["speedup"]
        assert speedup >= _FLOOR, (name, speedup)
