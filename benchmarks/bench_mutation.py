"""E14 — dynamic updates: warm mutate+query vs re-upload+query.

The tentpole claim of the mutation subsystem, measured: on an
E12-scale graph (the ``bench_graph_core`` instance class), a client
that keeps its graph resident and ships edge deltas through
``CutService.mutate`` answers the same post-update query mix ≥ 3x
faster than a client that re-uploads the full mutated edge list on
every change — because the warm path pays O(|delta|) for the update
(chained fingerprint, no re-parse), keeps the Gomory–Hu oracle behind
the monotone per-query certificate, and rebuilds only what the delta
actually invalidated.

Both sides are asserted bit-identical per step (same cut weights) —
the speedup is never bought with staleness; ``tests/test_mutation.py``
is the exhaustive version of that check.

Results land in ``BENCH_PR5.json`` (override the path with the
``BENCH_PR5`` env var); the CI perf-smoke leg uploads it alongside the
PR 4 graph-core artifact.
"""

import json
import os
import time

from conftest import emit

from repro.analysis.harness import ExperimentReport
from repro.graph import Graph
from repro.service import CutService
from repro.workloads import planted_cut

_N = 256
_INNER_DEGREE = 16
_SEED = 7
_STEPS = 5
_MIN_SPEEDUP = 3.0

_RESULTS_PATH = os.environ.get("BENCH_PR5", ".bench/BENCH_PR5.json")


def _instance() -> Graph:
    return planted_cut(_N, inner_degree=_INNER_DEGREE, seed=_SEED).graph


def _delta_schedule(graph: Graph) -> list[dict]:
    """Increase-only deltas confined to the planted sides.

    Intra-side reweights/adds never cross the planted cut, so the
    retained oracle's certificate can keep serving the cross-side
    query — the favourable (and common) dynamic regime the paper's
    adaptivity argument is about.  planted_cut puts vertices
    0..n/2-1 on one side.
    """
    half = _N // 2
    rows = [(u, v, w) for u, v, w in graph.edges()]
    intra = [
        (u, v, w)
        for u, v, w in rows
        if (u < half) == (v < half)
    ]
    deltas = []
    for step in range(_STEPS):
        picks = intra[step * 7 % len(intra)], intra[(step * 13 + 3) % len(intra)]
        delta = {
            "reweights": [[u, v, w + 1.0 + step] for u, v, w in picks],
            "adds": [[step * 2 % half, (step * 2 + 1) % half, 1.5]],
        }
        deltas.append(delta)
    return deltas


def _apply_to_rows(rows: list[list], delta: dict) -> None:
    """The edge-list reference semantics (reweights, removes, adds)."""
    index = {}
    for i, (u, v, _) in enumerate(rows):
        index[(u, v)] = i
        index[(v, u)] = i
    for u, v, w in delta.get("reweights", ()):
        rows[index[(u, v)]][2] = float(w)
    for row in delta.get("adds", ()):
        u, v = row[0], row[1]
        w = float(row[2])
        if (u, v) in index:
            rows[index[(u, v)]][2] += w
        else:
            rows.append([u, v, w])
            index[(u, v)] = index[(v, u)] = len(rows) - 1


def _query_mix(svc: CutService, name: str) -> tuple:
    half = _N // 2
    mc = svc.mincut(name, seed=1, trials=2, preprocess="aggressive")
    st1 = svc.stcut(name, 0, _N - 1)          # crosses the planted cut
    st2 = svc.stcut(name, 1, _N - 2)
    return mc["weight"], st1["weight"], st2["weight"], half


def test_e14_mutate_vs_reupload(report_sink):
    report = ExperimentReport(
        experiment="E14: dynamic updates — warm mutate+query vs "
                   "re-upload+query (E12-scale)",
        columns=["step", "mutate_s", "reupload_s", "speedup"],
    )
    deltas = _delta_schedule(_instance())

    warm = CutService()
    warm.register("g", _instance())
    cold = CutService()
    cold.register("g", _instance())
    # Both sides answer once pre-delta so the comparison is pure
    # update traffic: graphs resident, kernels + oracles built.
    assert _query_mix(warm, "g") == _query_mix(cold, "g")

    rows = [[u, v, w] for u, v, w in _instance().edges()]
    steps = []
    warm_total = cold_total = 0.0
    try:
        for i, delta in enumerate(deltas):
            t0 = time.perf_counter()
            warm.mutate("g", deltas=[delta])
            warm_answers = _query_mix(warm, "g")
            warm_s = time.perf_counter() - t0

            _apply_to_rows(rows, delta)
            t0 = time.perf_counter()
            # The frozen-graph protocol: ship and parse the whole edge
            # list again (register = parse + fingerprint + residency),
            # then re-answer.  Same server, same caches available — the
            # only difference is how the update arrives.
            cold.register("g", Graph(edges=[tuple(r) for r in rows]))
            cold_answers = _query_mix(cold, "g")
            cold_s = time.perf_counter() - t0

            assert warm_answers == cold_answers, (
                f"step {i}: warm {warm_answers} != re-upload {cold_answers}"
            )
            warm_total += warm_s
            cold_total += cold_s
            report.rows.append([str(i), warm_s, cold_s, cold_s / warm_s])
            steps.append(
                {"step": i, "mutate_query_s": warm_s,
                 "reupload_query_s": cold_s, "speedup": cold_s / warm_s}
            )

        speedup = cold_total / warm_total
        oracle_stats = list(warm.stats()["oracles"].values())
        mask_hits = sum(o["mask_hits"] for o in oracle_stats)
        store_stats = warm.stats()["store"]
    finally:
        warm.close()
        cold.close()

    report.rows.append(["total", warm_total, cold_total, speedup])
    report.notes.append(
        f"n={_N}, inner_degree={_INNER_DEGREE}, {_STEPS} increase-only "
        f"deltas; oracle mask hits={mask_hits}; query mix per step: "
        "1 aggressively-kernelized mincut + 2 stcuts"
    )
    emit(report_sink, report)

    results = {
        "experiment": "E14-mutation",
        "n": _N,
        "inner_degree": _INNER_DEGREE,
        "steps": steps,
        "warm_total_s": warm_total,
        "reupload_total_s": cold_total,
        "speedup": speedup,
        "oracle_mask_hits": mask_hits,
        "store_mutations": store_stats["mutations"],
        "min_speedup_asserted": _MIN_SPEEDUP,
    }
    with open(_RESULTS_PATH, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)

    assert mask_hits > 0, (
        "increase-only intra-side deltas should let the retained "
        "Gomory–Hu tree certify at least one answer"
    )
    assert speedup >= _MIN_SPEEDUP, (
        f"warm mutate+query path is only {speedup:.2f}x faster than "
        f"re-upload+query (acceptance floor: {_MIN_SPEEDUP}x)"
    )
