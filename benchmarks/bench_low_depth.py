"""E4 — Lemma 3: generalized low-depth decomposition, height O(log^2 n).

Regenerates the height table across tree families (paths exercise the
binarized-path machinery, balanced trees the meta tree depth) plus the
measured AMPC rounds on the simulator for moderate sizes.  The
benchmarked kernel decomposes a 4096-vertex random tree.

``test_step2_speedup`` times Algorithm 3's step 2 plus the keyed tree
the level structures walk (rooting, the low-depth decomposition, each
level's leader lists and the tree edges' keys) old vs new on every copy
Algorithm 1 hands to Algorithm 3 in trials on clustered n=64 (the graph
``/mincut`` solves on the mutation stream) and planted n=2048.  The old
side is the frozen object path (``tests/low_depth_reference.py``: the
MST as vertex pairs, ``root_tree``, heavy-light, meta tree, binarized
paths, the label climb, then ``tests/algo1_reference.py``'s
``index_tree`` with its ``{v: i}`` map over the label dict and its
``(neighbour, key)`` adjacency); the new side labels the MST's index
rows and keys that rooting (``keyed_tree``).  Rounds alternate old and
new, both single-threaded, so the ratio holds on a 1-2 CPU host.  Each
round asserts identical labels and per-level leader lists.  The gate
is a median speedup >= 2x on clustered n=64 and >= 1.5x on planted
n=2048.  Results go to the path in the ``BENCH_PR27`` env var
(``.bench/BENCH_PR27.json`` when unset).

Run: ``PYTHONPATH=src python -m pytest -q
benchmarks/bench_low_depth.py::test_step2_speedup``
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

import low_depth_reference as ref  # noqa: E402
from algo1_reference import index_tree  # noqa: E402

from repro.analysis.harness import ExperimentReport, run_low_depth_heights  # noqa: E402
from repro.core import ampc_min_cut  # noqa: E402
from repro.core import mincut as mincut_module  # noqa: E402
from repro.core.ldr import keyed_tree  # noqa: E402
from repro.trees import check_definition_1, low_depth_decomposition  # noqa: E402
from repro.workloads import clustered_community, planted_cut, random_tree  # noqa: E402

_RESULTS_PATH = os.environ.get("BENCH_PR27", ".bench/BENCH_PR27.json")

#: (name, graph factory, trial seeds, alternating rounds, floor)
_WORKLOADS = (
    ("clustered_64",
     lambda: clustered_community(64, intra_p=24 / 64, seed=3).graph,
     (1, 2, 3, 4), 21, 2.0),
    ("planted_2048", lambda: planted_cut(2048, seed=3).graph, (1,), 9, 1.5),
)


def test_e4_low_depth_report(report_sink, benchmark):
    report = run_low_depth_heights([128, 512, 2048], seed=4)
    emit(report_sink, report)

    for shape, n, height, envelope, rounds in report.rows:
        assert height <= envelope

    vs, es = random_tree(4096, seed=4)
    decomp = benchmark(lambda: low_depth_decomposition(vs, es))
    check_definition_1(decomp.tree, decomp.label)
    assert decomp.height <= decomp.height_bound()


def _copies(graph, seeds):
    """The keys of every copy Algorithm 1 hands to Algorithm 3."""
    keys = []
    inner = mincut_module.smallest_singleton_cut

    def recording(copies, **kw):
        keys.extend(copy.keys for copy in copies)
        return inner(copies, **kw)

    mincut_module.smallest_singleton_cut = recording
    try:
        for seed in seeds:
            ampc_min_cut(graph, seed=seed)
    finally:
        mincut_module.smallest_singleton_cut = inner
    return keys


def _old_step2(keys):
    V, mst = keys.vertices, keys.mst
    tree_edges = [(V[a], V[b]) for a, b in zip(mst.u, mst.v)]
    tree = ref.root_tree(V, tree_edges)
    decomp = ref.low_depth_decomposition(V, tree_edges, precomputed_tree=tree)
    return index_tree(decomp, keys)


def _new_step2(keys):
    mst = keys.mst
    decomp = low_depth_decomposition(keys.vertices, rows=(mst.u, mst.v))
    return keyed_tree(decomp, keys)


def _run(step2, copies):
    t0 = time.perf_counter()
    out = [step2(keys) for keys in copies]
    return out, time.perf_counter() - t0


def test_step2_speedup(report_sink):
    report = ExperimentReport(
        experiment="Algorithm 3 step 2 + keyed tree: object path vs index rows",
        columns=["graph", "copies", "max_n", "old_ms", "new_ms", "speedup", "floor"],
    )
    results = {
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "call": "keyed_tree(low_depth_decomposition(keys.vertices, "
        "rows=(mst.u, mst.v)), keys)  # per copy of the trials",
        "statistic": "median seconds per pass over all copies, "
        "alternating old/new rounds",
    }
    for name, make, seeds, rounds, floor in _WORKLOADS:
        copies = _copies(make(), seeds)
        old_s, new_s = [], []
        for r in range(rounds):
            # Alternate which side runs first, so drift hits both.
            sides = [(_old_step2, old_s), (_new_step2, new_s)]
            if r % 2:
                sides.reverse()
            out = {}
            for step2, times in sides:
                out[step2], dt = _run(step2, copies)
                times.append(dt)
            for new, old in zip(out[_new_step2], out[_old_step2], strict=True):
                assert new.decomp.labels == old.label, name
                assert new.leaders == old.leaders, name
                assert list(new.leaders) == list(old.leaders), name
        old, new = statistics.median(old_s), statistics.median(new_s)
        max_n = max(len(keys.vertices) for keys in copies)
        results[name] = {
            "copies": len(copies),
            "max_n": max_n,
            "rounds": rounds,
            "old_s": old,
            "new_s": new,
            "speedup": old / new,
            "floor": floor,
        }
        report.rows.append([
            name, len(copies), max_n, round(old * 1e3, 2), round(new * 1e3, 2),
            round(old / new, 2), floor,
        ])

    with open(_RESULTS_PATH, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit(report_sink, report)
    for name, *_, floor in _WORKLOADS:
        assert results[name]["speedup"] >= floor, (name, results[name]["speedup"])
