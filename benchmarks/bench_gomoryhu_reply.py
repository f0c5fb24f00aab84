"""`/gomoryhu` reply builder: the n×n value walk vs the tree's edges.

Times the reply of one exact Gomory–Hu tree old vs new.  The old side
is the frozen builder (``tests/gomoryhu_reference.py``): the per-source
walk that fills the ``{u: {v: value}}`` dict, the n×n ``matrix`` fill,
the Kruskal over all n²/2 pairs in ``(-w, i, j)`` order and one
bottleneck walk per source.  The new side is
``repro.service.ops.gomoryhu_reply``, which derives the same ``tree``,
``matrix`` and ``bottleneck`` from the tree's n - 1 edges
(``repro.flow.cut_tree_tables``: the star rule and one union pass).
Both sides start from the same tree and skip ``sides``.  Workloads are
clustered n=64 (the graph ``/gomoryhu`` serves on the mutation stream)
and planted n=256.  Rounds alternate old and new, both single-threaded,
so the ratio holds on a 1-2 CPU host; every round asserts identical
payloads.  The gate is a median speedup >= 3x at planted n=256.
Results go to the path in the ``BENCH_PR31`` env var
(``.bench/BENCH_PR31.json`` when unset).

Run: ``PYTHONPATH=src python -m pytest -q
benchmarks/bench_gomoryhu_reply.py``
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

from gomoryhu_reference import reference_all_pairs, reference_reply  # noqa: E402

from repro.analysis.harness import ExperimentReport  # noqa: E402
from repro.flow import gomory_hu_tree  # noqa: E402
from repro.service.ops import gomoryhu_reply  # noqa: E402
from repro.workloads import clustered_community, planted_cut  # noqa: E402

_RESULTS_PATH = os.environ.get("BENCH_PR31", ".bench/BENCH_PR31.json")

#: (name, graph factory, alternating rounds, floor or None)
_WORKLOADS = (
    ("clustered_64",
     lambda: clustered_community(64, intra_p=24 / 64, seed=1).graph,
     21, None),
    ("planted_256", lambda: planted_cut(256, seed=3).graph, 9, 3.0),
)


def _old(graph, tree):
    return reference_reply(graph, reference_all_pairs(tree), False)


def _new(graph, tree):
    return gomoryhu_reply(graph, [tree], sides=False)


def test_gomoryhu_reply_speedup(report_sink):
    report = ExperimentReport(
        experiment="/gomoryhu reply: value-matrix builder vs tree edges",
        columns=["graph", "n", "old_ms", "new_ms", "speedup", "floor"],
    )
    results = {
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "call": "gomoryhu_reply(graph, [gomory_hu_tree(graph)], sides=False)",
        "statistic": "median seconds per reply, alternating old/new rounds",
    }
    for name, make, rounds, floor in _WORKLOADS:
        graph = make()
        tree = gomory_hu_tree(graph)
        old_s, new_s = [], []
        for r in range(rounds):
            # Alternate which side runs first, so drift hits both.
            sides = [(_old, old_s), (_new, new_s)]
            if r % 2:
                sides.reverse()
            out = {}
            for build, times in sides:
                t0 = time.perf_counter()
                out[build] = build(graph, tree)
                times.append(time.perf_counter() - t0)
            assert json.dumps(out[_new]) == json.dumps(out[_old]), name
        old, new = statistics.median(old_s), statistics.median(new_s)
        results[name] = {
            "n": graph.num_vertices,
            "rounds": rounds,
            "old_s": old,
            "new_s": new,
            "speedup": old / new,
            "floor": floor,
        }
        report.rows.append([
            name, graph.num_vertices, round(old * 1e3, 2),
            round(new * 1e3, 2), round(old / new, 2), floor,
        ])

    with open(_RESULTS_PATH, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit(report_sink, report)
    for name, *_, floor in _WORKLOADS:
        if floor is not None:
            assert results[name]["speedup"] >= floor, (
                name, results[name]["speedup"])
