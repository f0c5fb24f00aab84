"""E15 — the PR 10 scenario products earn their keep.

Two claims, both measured end to end:

* **Amortization**: one warm ``POST /gomoryhu`` round trip answers all
  ``n(n-1)/2`` pairwise min-cut questions; asking ``/stcut`` for even
  a single spanning set of ``n - 1`` pairs costs at least 5x as much
  wall clock, despite every one of those also being a warm cache hit.
  (This is the amortized face of Definition 8: the tree is *the*
  all-pairs artifact; per-pair serving re-pays HTTP + dispatch + cache
  lookup ``n - 1`` times.)

* **Kernelization**: on a clustered instance whose communities the
  ``w > upper * N^2/4`` bound can contract, the sparsest-cut kernel
  shrinks exact enumeration from ``2^(n-1)`` bipartitions to
  ``2^(k-1)`` — identical sparsity, measured speedup.

Results land in ``BENCH_PR10.json`` (override the path with the
``BENCH_PR10`` environment variable).

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_scenarios.py -q``
"""

from __future__ import annotations

import json
import math
import os
import threading
import time

from conftest import emit

from repro.analysis.harness import ExperimentReport
from repro.analysis.sparsest import (
    approx_sparsest_cut,
    exact_sparsest_cut,
    sparsest_kernel,
)
from repro.service import CutService, make_server, request_json
from repro.workloads import clustered_community, planted_cut

_RESULTS_PATH = os.environ.get("BENCH_PR10", ".bench/BENCH_PR10.json")
_REPEATS = 5


def _timed(fn) -> tuple[object, float]:
    best = math.inf
    out = None
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _write(results: dict) -> None:
    payload = {}
    if os.path.exists(_RESULTS_PATH):
        with open(_RESULTS_PATH, encoding="utf-8") as fh:
            payload = json.load(fh)
    payload.update(results)
    with open(_RESULTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def test_e15a_gomoryhu_amortizes_stcut_sweeps(report_sink):
    n = 40
    graph = planted_cut(n, inner_degree=6, seed=3).graph
    vs = graph.vertices()
    service = CutService()
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        request_json(server.url, "/graphs", {
            "name": "g",
            "edges": [[u, v, w] for u, v, w in graph.edges()],
        })
        # warm everything: the oracle tree, the gomoryhu result cache,
        # and every stcut pair we are about to sweep
        cold = request_json(server.url, "/gomoryhu", {"graph": "g"})
        assert cold["cached"] is False
        pairs = [(vs[0], t) for t in vs[1:]]  # a spanning n-1 sweep
        for s, t in pairs:
            request_json(server.url, "/stcut", {"graph": "g", "s": s,
                                                "t": t})

        allpairs, gomoryhu_s = _timed(lambda: request_json(
            server.url, "/gomoryhu", {"graph": "g"}))
        assert allpairs["cached"] is True

        def sweep():
            return [request_json(server.url, "/stcut",
                                 {"graph": "g", "s": s, "t": t})
                    for s, t in pairs]

        answers, sweep_s = _timed(sweep)
        assert all(a["cached"] for a in answers)
        # same numbers either way
        index = {v: i for i, v in enumerate(allpairs["vertices"])}
        for (s, t), a in zip(pairs, answers):
            assert allpairs["matrix"][index[s]][index[t]] == a["weight"]
    finally:
        server.shutdown()
        service.close()

    speedup = sweep_s / gomoryhu_s
    report = ExperimentReport(
        experiment=(
            f"E15a: warm /gomoryhu (all {n*(n-1)//2} pairs) vs warm "
            f"/stcut sweep ({n - 1} pairs), best of {_REPEATS}"
        ),
        columns=["query", "roundtrips", "pairs_answered", "wall_s"],
    )
    report.rows.append(["/gomoryhu", 1, n * (n - 1) // 2,
                        round(gomoryhu_s, 6)])
    report.rows.append([f"/stcut x{n-1}", n - 1, n - 1,
                        round(sweep_s, 6)])
    emit(report_sink, report)
    _write({"gomoryhu_amortization": {
        "n": n,
        "gomoryhu_s": gomoryhu_s,
        "stcut_sweep_s": sweep_s,
        "speedup": speedup,
    }})
    assert speedup >= 5.0, (
        f"one /gomoryhu roundtrip must beat {n-1} /stcut roundtrips 5x, "
        f"got {speedup:.1f}x"
    )


def test_e15b_sparsest_kernel_shrinks_enumeration(report_sink):
    # 16 vertices: exact enumeration sweeps 2^15 bipartitions; the
    # kernel contracts the four heavy communities to 4 supernodes, so
    # the same enumeration sweeps 2^3.  The upper bound (one GH-tree
    # sweep) is a fixed cost shared with every other query on the
    # graph — it is reported separately, not folded into the gate,
    # because what the kernel buys is the *exponential* term.
    graph = clustered_community(16, seed=7, intra_weight=8.0).graph

    full, full_s = _timed(lambda: exact_sparsest_cut(graph))

    bound, upper_s = _timed(
        lambda: approx_sparsest_cut(graph, seed=0, trials=1))
    (kernel, ksizes, _blocks), contract_s = _timed(
        lambda: sparsest_kernel(graph, upper=bound.sparsity))
    assert kernel.num_vertices < graph.num_vertices
    folded, enum_s = _timed(
        lambda: exact_sparsest_cut(kernel, sizes=ksizes))
    assert folded.sparsity == full.sparsity

    enum_speedup = full_s / enum_s
    end_to_end_s = upper_s + contract_s + enum_s
    report = ExperimentReport(
        experiment=(
            f"E15b: exact sparsest-cut enumeration, kernel-off vs "
            f"kernel-on (n=16 -> k={kernel.num_vertices}, "
            f"best of {_REPEATS})"
        ),
        columns=["stage", "vertices_enumerated", "sparsity", "wall_s"],
    )
    report.rows.append(["enumerate-full", graph.num_vertices,
                        full.sparsity, round(full_s, 6)])
    report.rows.append(["enumerate-kernel", kernel.num_vertices,
                        folded.sparsity, round(enum_s, 6)])
    report.rows.append(["  + upper bound (GH sweep)", "-", "-",
                        round(upper_s, 6)])
    report.rows.append(["  + contraction", "-", "-",
                        round(contract_s, 6)])
    emit(report_sink, report)
    _write({"sparsest_kernel": {
        "n": graph.num_vertices,
        "kernel_vertices": kernel.num_vertices,
        "full_enum_s": full_s,
        "kernel_enum_s": enum_s,
        "upper_bound_s": upper_s,
        "contract_s": contract_s,
        "end_to_end_s": end_to_end_s,
        "enum_speedup": enum_speedup,
        "sparsity": full.sparsity,
    }})
    # the gate: identical answer from an exponentially smaller sweep
    assert enum_speedup > 2.0, (
        f"kernel enumeration not faster: {enum_speedup:.2f}x"
    )
