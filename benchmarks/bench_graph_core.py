"""PR-4 perf smoke — columnar graph core vs the dict-based seed.

Times the contraction hot path on E12-scale graphs, old vs new:

* **quotient** — the operation every solver bottoms out in (Karger
  probes, Algorithm 1 line 6, APX-SPLIT, kernelization): vectorized
  label-relabel + segment-sum merge vs the seed's per-edge
  ``add_edge`` rebuild (``_LegacyDictGraph`` below, the seed
  implementation's storage verbatim);
* **induced subgraph** — mask-and-slice vs filter-and-re-add;
* **karger run** — end-to-end single-run latency on the new stack
  (key draw + MST contraction + quotient), reported for trend
  tracking.

Asserts the headline claim: **>= 2x on quotient** (CI hosts measure
far more; the floor keeps the assertion robust to noisy runners).
Results are persisted to ``BENCH_PR4.json`` (override the path with
the ``BENCH_PR4`` env var) and uploaded as a CI artifact by the
perf-smoke leg — the first entry of the repo's bench trajectory.

Run: ``PYTHONPATH=src python -m pytest -q benchmarks/bench_graph_core.py``
"""

import json
import os
import time

from conftest import emit

from repro.analysis.harness import ExperimentReport
from repro.baselines import karger_single_run
from repro.workloads import erdos_renyi, planted_cut

_SEED = 17
_REPEATS = 5

#: E12-scale instances: dense enough that per-edge Python dict work
#: dominates the seed implementation, the regime the refactor targets.
_WORKLOADS = [
    ("planted_256", planted_cut(256, inner_degree=16, seed=_SEED).graph),
    ("er_300", erdos_renyi(300, 0.1, weighted=True, seed=_SEED)),
]

_RESULTS_PATH = os.environ.get("BENCH_PR4", ".bench/BENCH_PR4.json")


class _LegacyDictGraph:
    """The seed Graph's storage and structure ops, kept verbatim as the
    old side of the old-vs-new comparison."""

    def __init__(self, vertices=(), edges=()):
        self._vertices = []
        self._index = {}
        self._weights = {}
        for v in vertices:
            self.add_vertex(v)
        for u, v, w in edges:
            self.add_edge(u, v, w)

    def add_vertex(self, v):
        if v not in self._index:
            self._index[v] = len(self._vertices)
            self._vertices.append(v)

    def add_edge(self, u, v, w):
        self.add_vertex(u)
        self.add_vertex(v)
        iu, iv = self._index[u], self._index[v]
        key = (iu, iv) if iu < iv else (iv, iu)
        self._weights[key] = self._weights.get(key, 0.0) + float(w)

    def edges(self):
        for (iu, iv), w in self._weights.items():
            yield (self._vertices[iu], self._vertices[iv], w)

    def quotient(self, representative):
        blocks = {}
        for v in self._vertices:
            blocks.setdefault(representative[v], []).append(v)
        q = _LegacyDictGraph(vertices=list(blocks.keys()))
        for u, v, w in self.edges():
            ru, rv = representative[u], representative[v]
            if ru != rv:
                q.add_edge(ru, rv, w)
        return q, blocks

    def induced_subgraph(self, keep):
        keep = set(keep)
        sub = _LegacyDictGraph(
            vertices=[v for v in self._vertices if v in keep]
        )
        for u, v, w in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v, w)
        return sub


def _legacy_of(graph):
    return _LegacyDictGraph(vertices=graph.vertices(), edges=graph.edges())


def _best_of(fn, *args):
    best = float("inf")
    out = None
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return out, best


def _contraction_rep(graph, groups):
    vs = graph.vertices()
    return {v: vs[i % groups] for i, v in enumerate(vs)}


def test_graph_core_speedup(report_sink):
    report = ExperimentReport(
        experiment="PR4: columnar graph core, old (dict) vs new (columnar)",
        columns=["workload", "n", "m", "op", "old_ms", "new_ms", "speedup"],
    )
    results = {}
    quotient_speedups = []
    for name, graph in _WORKLOADS:
        legacy = _legacy_of(graph)
        n, m = graph.num_vertices, graph.num_edges
        rep = _contraction_rep(graph, max(2, n // 8))
        keep = graph.vertices()[: n // 2]
        rows = {}

        (lq, _), old_q = _best_of(legacy.quotient, rep)
        (nq, _), new_q = _best_of(graph.quotient, rep)
        assert sorted(
            (u, v, w) for u, v, w in nq.edges()
        ) == sorted((u, v, w) for u, v, w in lq.edges())
        rows["quotient"] = (old_q, new_q)
        quotient_speedups.append(old_q / new_q)

        li, old_i = _best_of(legacy.induced_subgraph, keep)
        ni, new_i = _best_of(graph.induced_subgraph, keep)
        assert list(ni.edges()) == list(li.edges())
        rows["induced_subgraph"] = (old_i, new_i)

        _, karger_s = _best_of(lambda: karger_single_run(graph, seed=3))
        rows["karger_run"] = (None, karger_s)

        results[name] = {}
        for op, (old_s, new_s) in rows.items():
            speedup = old_s / new_s if old_s is not None else None
            results[name][op] = {
                "old_s": old_s,
                "new_s": new_s,
                "speedup": speedup,
            }
            report.rows.append([
                name, n, m, op,
                round(old_s * 1e3, 3) if old_s is not None else "-",
                round(new_s * 1e3, 3),
                round(speedup, 2) if speedup is not None else "-",
            ])

    results["min_quotient_speedup"] = min(quotient_speedups)
    with open(_RESULTS_PATH, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    emit(report_sink, report)

    # The headline claim: >= 2x on the quotient hot path everywhere.
    assert min(quotient_speedups) >= 2.0, (
        f"quotient speedup below 2x: {quotient_speedups}"
    )
