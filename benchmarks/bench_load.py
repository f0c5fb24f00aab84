"""E15 — serving-layer SLOs under open-loop load.

The observability tentpole, closed end to end: boot the real HTTP
server (thread-per-connection, tracing on), drive it with the
open-loop generator (:mod:`repro.obs.loadgen` — fixed arrival rate,
bounded in-flight window, mixed upload/query/mutate/batch traffic),
and gate the run on SLO floors with :func:`repro.obs.loadgen.check_slos`.

Open-loop matters: latency is measured from each request's *scheduled*
arrival, so a server that falls behind shows the backlog in its tail
quantiles instead of quietly slowing the generator down (the
coordinated-omission trap of closed-loop harnesses).

Results land in ``BENCH_PR6.json`` (override with the ``BENCH_PR6``
env var); the server's span buffer is exported next to it as
``BENCH_PR6_spans.jsonl`` (override with ``BENCH_PR6_SPANS``).  The CI
perf-slo leg uploads both and fails the build on any floor violation.

The floors are deliberately loose — an order of magnitude above warm
numbers on an idle laptop — because they gate *regressions that
matter* (a lock serializing the request path, an accidental oracle
rebuild per query), not scheduler jitter on a busy CI runner.
"""

import json
import os
import threading
import time

from conftest import emit

from repro.analysis.harness import ExperimentReport
from repro.obs import LoadGen, LoadGenConfig, check_slos, self_times
from repro.service import CutService, make_server

_RATE = 60.0            # target arrivals per second
_DURATION_S = 4.0
_MAX_INFLIGHT = 12
_GRAPHS = 2
_GRAPH_N = 48
_SEED = 6
_PROBE_S = 1.0

#: SLO floors asserted in CI (see module docstring on their looseness).
_SLO_FLOORS = {
    "mincut_p99_s": 2.0,      # warm p99 is ~milliseconds; 2 s = pathology
    "stcut_p99_s": 1.0,       # oracle-backed reads must stay cheap
    "mutate_p99_s": 1.0,      # deltas are O(|delta|), never a rebuild storm
    "min_rps": _RATE * 0.5,   # must sustain half the offered rate
    "max_error_rate": 0.02,   # the scripted corpus should never 4xx/5xx
    "min_saturation_rps": 25.0,
}

_RESULTS_PATH = os.environ.get("BENCH_PR6", ".bench/BENCH_PR6.json")
_SPANS_PATH = os.environ.get("BENCH_PR6_SPANS", ".bench/BENCH_PR6_spans.jsonl")


def test_e15_load_slos(report_sink):
    report = ExperimentReport(
        experiment="E15: open-loop load — per-op latency quantiles vs "
                   f"SLO floors at {_RATE:.0f} rps",
        columns=["op", "count", "p50_ms", "p95_ms", "p99_ms", "errors"],
    )

    service = CutService()
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    t0 = time.perf_counter()
    try:
        config = LoadGenConfig(
            url=server.url,
            rate=_RATE,
            duration_s=_DURATION_S,
            max_inflight=_MAX_INFLIGHT,
            graphs=_GRAPHS,
            graph_n=_GRAPH_N,
            seed=_SEED,
            probe_s=_PROBE_S,
        )
        results = LoadGen(config).run()
        spans = service.tracer.snapshot()
        tracer_stats = service.tracer.stats()
        with open(_SPANS_PATH, "w") as f:
            span_count = service.tracer.write_jsonl(f, spans)
    finally:
        server.shutdown()
        service.close()
    wall_s = time.perf_counter() - t0

    for op, row in sorted(results["op_classes"].items()):
        report.rows.append([
            op, row["count"], row["p50_s"] * 1e3, row["p95_s"] * 1e3,
            row["p99_s"] * 1e3, row["errors"],
        ])
    report.notes.append(
        f"{results['completed_requests']}/{results['planned_requests']} "
        f"requests at {results['achieved_rps']:.1f} rps "
        f"(target {_RATE:.0f}); saturation probe "
        f"{results['saturation_rps']:.0f} rps; {span_count} spans exported"
    )
    emit(report_sink, report)

    violations = check_slos(results, _SLO_FLOORS)
    results["slo_floors"] = dict(_SLO_FLOORS)
    results["slo_violations"] = violations
    results["tracer"] = tracer_stats
    results["spans_exported"] = span_count
    results["harness_wall_s"] = wall_s
    with open(_RESULTS_PATH, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)

    # The trace leg of the tentpole: the load actually produced a span
    # tree (roots = http.request) whose self-time accounting is sane.
    assert span_count > 0, "tracing was on but the ring buffer is empty"
    roots = [s for s in spans if s["parent_id"] is None]
    assert roots, "no root spans — http.request instrumentation is gone"
    assert all(t >= -1e-9 for t in self_times(spans).values()), (
        "negative self-time: span nesting is inconsistent"
    )

    assert not violations, "SLO violations:\n  " + "\n  ".join(violations)
