"""E15 — fully dynamic maintenance: mixed-sign deltas, repair not rebuild.

PR 5's E14 benchmark measured the *favourable* dynamic regime:
increase-only deltas the retained Gomory-Hu oracle can mask outright.
This benchmark measures the regime that used to drop everything —
**mixed-sign** deltas whose decreases previously forced a from-scratch
oracle rebuild on the next query.  With localized repair
(``repro.flow.repair_gomory_hu``) the warm path now pays one L-flow
plus a handful of recomputed tree edges per decrease, while the cold
protocol re-uploads the full edge list and rebuilds its Gomory-Hu tree
(n-1 max-flows) to answer the same queries.

The decreases are *localized* by construction: mild (-0.25) reweights
on the best-connected pairs of a heterogeneous planted instance, so
the repair's L-guard stays above almost every tree label and untouched
subtrees survive verbatim.  Both sides are asserted bit-identical per
step — the speedup is never bought with staleness
(``tests/test_dynamic_stream.py`` is the exhaustive version).

Results land in ``BENCH_PR7.json`` (override with the ``BENCH_PR7``
env var); the CI perf-smoke leg uploads it alongside the PR 4/5
artifacts.  Asserted floors: >= 3x total speedup, repair taken on the
majority of decrease deltas, repairs outnumber fallbacks.
"""

import json
import os
import time
from collections import defaultdict

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

_RESULTS_PATH = os.environ.get("BENCH_PR7", ".bench/BENCH_PR7.json")


def _instance() -> Graph:
    return planted_cut(_N, inner_degree=_INNER_DEGREE, seed=_SEED).graph


def _delta_schedule(graph: Graph) -> list[dict]:
    """Mixed-sign deltas with *localized* decreases.

    Each step weakens one of the best-connected edges (highest
    min-endpoint weighted degree) by a small dyadic amount and
    reinforces an intra-side edge — one decrease and one increase per
    delta, so every step exercises the repair path, never the pure
    mask path.
    """
    rows = [(u, v, w) for u, v, w in graph.edges()]
    degs: dict = defaultdict(float)
    for u, v, w in rows:
        degs[u] += w
        degs[v] += w
    by_connectivity = sorted(
        rows, key=lambda r: min(degs[r[0]], degs[r[1]]), reverse=True
    )
    half = _N // 2
    intra = [(u, v, w) for u, v, w in rows if (u < half) == (v < half)]
    deltas = []
    for step in range(_STEPS):
        u, v, w = by_connectivity[step]
        iu, iv, iw = intra[(step * 13 + 3) % len(intra)]
        deltas.append({
            "reweights": [[u, v, w - 0.25]],        # localized decrease
            "adds": [[iu, iv, 0.5]],                # intra-side increase
        })
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
    mc = svc.mincut(name, seed=1, trials=2, preprocess="aggressive")
    st1 = svc.stcut(name, 0, _N - 1)          # crosses the planted cut
    st2 = svc.stcut(name, 1, _N - 2)
    return mc["weight"], st1["weight"], st2["weight"]


def test_e15_mixed_sign_mutate_vs_reupload(report_sink):
    report = ExperimentReport(
        experiment="E15: fully dynamic maintenance — mixed-sign warm "
                   "mutate+query vs re-upload+query (E12-scale)",
        columns=["step", "mutate_s", "reupload_s", "speedup"],
    )
    deltas = _delta_schedule(_instance())
    decrease_steps = sum(
        1 for d in deltas
        if any(True for _ in d.get("reweights", ()))
    )

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
            # list again, then re-answer from scratch (the new
            # fingerprint misses every cache, so the Gomory-Hu tree is
            # rebuilt with n-1 max-flows).
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
        stats = warm.stats()
        oracle_stats = list(stats["oracles"].values())
        repairs = sum(o["repairs"] for o in oracle_stats)
        fallbacks = sum(o["repair_fallbacks"] for o in oracle_stats)
        repaired_edges = sum(o["repaired_edges"] for o in oracle_stats)
        reductions_replayed = stats["store"]["reductions_replayed"]
    finally:
        warm.close()
        cold.close()

    report.rows.append(["total", warm_total, cold_total, speedup])
    report.notes.append(
        f"n={_N}, inner_degree={_INNER_DEGREE}, {_STEPS} mixed-sign "
        f"deltas (one localized decrease + one increase each); "
        f"repairs={repairs}, fallbacks={fallbacks}, "
        f"repaired_edges={repaired_edges} of {_N - 1} tree edges per "
        "repair budget; query mix per step: 1 aggressively-kernelized "
        "mincut + 2 stcuts"
    )
    emit(report_sink, report)

    results = {
        "experiment": "E15-dynamic",
        "n": _N,
        "inner_degree": _INNER_DEGREE,
        "steps": steps,
        "warm_total_s": warm_total,
        "reupload_total_s": cold_total,
        "speedup": speedup,
        "decrease_steps": decrease_steps,
        "repairs": repairs,
        "repair_fallbacks": fallbacks,
        "repaired_edges": repaired_edges,
        "reductions_replayed": reductions_replayed,
        "min_speedup_asserted": _MIN_SPEEDUP,
    }
    with open(_RESULTS_PATH, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)

    assert repairs * 2 > decrease_steps, (
        f"repair taken on only {repairs} of {decrease_steps} localized "
        "decrease deltas — the L-guard should keep the majority"
    )
    assert repairs > fallbacks, (
        f"fallbacks ({fallbacks}) outnumber repairs ({repairs}) on "
        "localized decreases"
    )
    assert repaired_edges < repairs * (_N // 4), (
        f"repairs recomputed {repaired_edges} tree edges over {repairs} "
        f"repairs — not sublinear in n={_N}"
    )
    assert speedup >= _MIN_SPEEDUP, (
        f"warm mixed-sign mutate+query path is only {speedup:.2f}x "
        f"faster than re-upload+query (acceptance floor: {_MIN_SPEEDUP}x)"
    )
