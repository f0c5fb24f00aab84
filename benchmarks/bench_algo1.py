"""One Algorithm 1 trial: the frozen per-copy path vs the array path.

``tests/algo1_reference.py`` keeps ``ampc_min_cut`` as it was when each
copy of each recursion level ran its own Algorithm 3 call -- its own
interval build and sweep, a witness that re-ran Kruskal, a level
structure walked by one DFS per leader, a quotient and ``{v: [members]}``
blocks per copy -- and ``root_tree`` keyed vertices once per comparison.
The current trial tracks every copy's singleton cuts in one batched
Algorithm 3 call, builds every copy's Lemma-11 tables in one
pointer-jumping pass, contracts each level's copies in one quotient and
lifts cuts through index arrays.  This benchmark times one trial both
ways, alternating old and new, on the served shape (clustered n=64, the
graph ``/mincut`` solves on the mutation stream) and on planted n=2048,
asserts identical results (weight, side, every ledger entry, base
solves, singleton runs) and gates the median speedup at >= 2.5x on
n=64 and >= 2.0x on n=2048 (seven samples per side there, whose
median ratio read 2.07-2.44 on a 2-CPU host).  Both sides run
single-threaded, so the ratios hold on a 1-2 CPU host.  Results go to the path in the
``BENCH_PR34`` env var (``.bench/BENCH_PR34.json`` when unset).

Run: ``PYTHONPATH=src python -m pytest -q benchmarks/bench_algo1.py``
"""

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from conftest import emit

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import algo1_reference as ref  # noqa: E402

from repro.analysis.harness import ExperimentReport  # noqa: E402
from repro.core import ampc_min_cut  # noqa: E402
from repro.workloads import clustered_community, planted_cut  # noqa: E402

_RESULTS_PATH = os.environ.get("BENCH_PR34", ".bench/BENCH_PR34.json")

#: (name, graph factory, trial seeds, alternating rounds, floor)
_WORKLOADS = (
    ("clustered_64",
     lambda: clustered_community(64, intra_p=24 / 64, seed=3).graph,
     (1, 2, 3, 4), 15, 2.5),
    ("planted_2048", lambda: planted_cut(2048, seed=3).graph, (1,), 7, 2.0),
)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _same(new, old):
    return (
        new.cut.weight == old.cut.weight
        and new.cut.side == old.cut.side
        and new.ledger.entries == old.ledger.entries
        and new.base_solves == old.base_solves
        and new.singleton_runs == old.singleton_runs
    )


def test_trial_speedup(report_sink):
    report = ExperimentReport(
        experiment="Algorithm 1 trial: frozen per-copy path vs arrays over a trial's copies",
        columns=["graph", "n", "m", "old_ms", "new_ms", "speedup", "floor"],
    )
    results = {
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "call": "ampc_min_cut(g, seed=s)  # one trial, eps=0.5, max_copies=4",
        "statistic": "median per-trial seconds over alternating old/new rounds",
    }
    for name, make, seeds, rounds, floor in _WORKLOADS:
        g = make()
        old_s, new_s = [], []
        for r in range(rounds):
            for seed in seeds:
                # Alternate which side runs first, so drift hits both.
                sides = [(ref.ampc_min_cut, old_s), (ampc_min_cut, new_s)]
                if r % 2:
                    sides.reverse()
                out = {}
                for solve, times in sides:
                    out[solve], dt = _timed(lambda: solve(g, seed=seed))
                    times.append(dt)
                assert _same(out[ampc_min_cut], out[ref.ampc_min_cut]), (name, seed)
        old, new = statistics.median(old_s), statistics.median(new_s)
        results[name] = {
            "n": g.num_vertices,
            "m": g.num_edges,
            "trials_per_side": len(new_s),
            "old_s": old,
            "new_s": new,
            "speedup": old / new,
            "floor": floor,
        }
        report.rows.append([
            name, g.num_vertices, g.num_edges, round(old * 1e3, 2),
            round(new * 1e3, 2), round(old / new, 2), floor,
        ])

    with open(_RESULTS_PATH, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit(report_sink, report)
    for name, *_, floor in _WORKLOADS:
        assert results[name]["speedup"] >= floor, (name, results[name]["speedup"])
