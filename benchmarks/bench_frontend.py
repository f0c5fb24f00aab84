"""E16 — the serving frontend under deliberate overload.

Three contracts of the admission/coalescing/sharding tier, asserted
against the real HTTP server:

1. **Overload degrades by shedding, never by erroring.**  A server
   whose admission window is tiny (2 in flight + 2 queued) is driven
   at several times its capacity.  Every rejected request must be a
   clean ``429`` (counted as a *shed*, not an error), the non-429
   failure rate must be exactly zero, and the wait queue must never
   exceed its configured bound — overload produces backpressure, not
   a backlog and not a 5xx storm.
2. **Identical concurrent queries coalesce.**  Eight clients asking
   the same cold question get one computation and eight identical
   answers (``coalesced_hits == 7``), deterministically — the leader
   is gated until all followers have joined the flight.
3. **Sharding buys read throughput.**  On hosts with >= 4 CPUs a
   sharded frontend must beat the single-process one by >= 1.5x on a
   warm read-only workload (skipped on smaller hosts, where worker
   processes just time-slice one core).

Results land in ``BENCH_PR8.json`` (override with the ``BENCH_PR8``
env var); the CI perf-slo leg uploads it next to the bench_load
artifacts.
"""

import json
import os
import threading
import time

import pytest
from conftest import emit

from repro.analysis.harness import ExperimentReport
from repro.obs import LoadGen, LoadGenConfig, check_slos
from repro.service import (
    CutService,
    make_frontend,
    make_server,
    request_json,
    request_status_json,
)
from repro.workloads import planted_cut

_RESULTS_PATH = os.environ.get("BENCH_PR8", ".bench/BENCH_PR8.json")

# the deliberately tiny admission window for the overload leg
_MAX_INFLIGHT = 2
_MAX_QUEUE = 2
_RATE = 300.0            # several times what the window admits
_DURATION_S = 2.0
_CLIENT_WINDOW = 16      # 4x the server's total capacity (2 + 2)

_RESULTS: dict = {}
_RESULTS_LOCK = threading.Lock()


def _record(section: str, payload: dict) -> None:
    """Accumulate sections across tests; rewrite the artifact each time."""
    with _RESULTS_LOCK:
        _RESULTS[section] = payload
        with open(_RESULTS_PATH, "w") as f:
            json.dump(_RESULTS, f, indent=2, sort_keys=True)


def _serve(service=None, **frontend_kwargs):
    """Boot a threaded HTTP server; returns (server, frontend)."""
    frontend = make_frontend(service, **frontend_kwargs)
    server = make_server(frontend=frontend)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, frontend


def test_e16_overload_sheds_cleanly(report_sink):
    report = ExperimentReport(
        experiment="E16a: overload at a tiny admission window — sheds, "
                   "errors, queue bound",
        columns=["op", "count", "sheds", "errors", "p99_ms"],
    )
    service = CutService()
    server, frontend = _serve(
        service,
        max_inflight=_MAX_INFLIGHT,
        max_queue=_MAX_QUEUE,
        queue_timeout_s=0.05,
        retry_after_s=0.2,
    )
    try:
        config = LoadGenConfig(
            url=server.url,
            rate=_RATE,
            duration_s=_DURATION_S,
            max_inflight=_CLIENT_WINDOW,
            graphs=2,
            graph_n=32,
            seed=8,
        )
        results = LoadGen(config).run()
        state = frontend.describe()
    finally:
        server.shutdown()
        frontend.close()

    for op, row in sorted(results["op_classes"].items()):
        report.rows.append([
            op, row["count"], row["sheds"], row["errors"],
            row["p99_s"] * 1e3,
        ])
    report.notes.append(
        f"{results['sheds']}/{results['completed_requests']} requests shed "
        f"at {results['achieved_rps']:.0f} rps offered against a "
        f"{_MAX_INFLIGHT}+{_MAX_QUEUE} window; "
        f"queue_depth_peak={state['queue_depth_peak']}"
    )
    emit(report_sink, report)

    results["frontend"] = state
    _record("overload", results)

    # the window was offered far more than it admits: shedding happened
    assert results["sheds"] > 0, "no 429s under 4x overload — gate is open?"
    # ... and shedding is the ONLY failure mode: non-429 error rate == 0
    violations = check_slos(results, {"max_error_rate": 0.0})
    assert not violations, "SLO violations:\n  " + "\n  ".join(violations)
    assert results["errors"] == 0, f"non-429 failures: {results['errors']}"
    # the queue never grew past its configured bound
    assert state["queue_depth_peak"] <= _MAX_QUEUE, (
        f"queue peaked at {state['queue_depth_peak']} > limit {_MAX_QUEUE}"
    )
    # the gate drained: nothing left in flight or queued after the run
    assert state["inflight"] == 0 and state["queue_depth"] == 0


def test_e16_identical_queries_coalesce(report_sink):
    clients = 8
    service = CutService()
    server, frontend = _serve(service)  # default (generous) window
    started = threading.Semaphore(0)
    release = threading.Event()
    original = service.mincut

    def gated_mincut(*args, **kwargs):
        started.release()
        release.wait(timeout=30)
        return original(*args, **kwargs)

    try:
        g = planted_cut(64, inner_degree=4, seed=3).graph
        request_json(server.url, "/graphs", {
            "name": "g", "edges": [[u, v, w] for u, v, w in g.edges()],
        })
        admitted_before = frontend.describe()["admitted"]
        service.mincut = gated_mincut

        body = {"graph": "g", "seed": 0, "trials": 4}
        replies: list = [None] * clients

        def client(i):
            replies[i] = request_status_json(server.url, "/mincut", body)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(clients)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        # the leader is parked inside service.mincut; hold it there
        # until every follower has been admitted and joined the flight
        assert started.acquire(timeout=10), "leader never reached the service"
        deadline = time.monotonic() + 10
        while (
            frontend.describe()["admitted"] - admitted_before < clients
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        # admitted followers are a few straight-line statements away
        # from joining the leader's flight; give them that moment
        time.sleep(0.25)
        release.set()
        for t in threads:
            t.join(timeout=30)
        wall_s = time.perf_counter() - t0
        state = frontend.describe()
    finally:
        release.set()
        service.mincut = original
        server.shutdown()
        frontend.close()

    statuses = [s for s, _ in replies]
    payloads = [p for _, p in replies]
    assert statuses == [200] * clients
    # one leader, everyone else served from the shared flight
    assert state["coalesce_leaders"] >= 1
    assert state["coalesced_hits"] == clients - 1, state
    # and the fan-out is bit-identical (trace-free payloads)
    canonical = json.dumps(payloads[0], sort_keys=True)
    assert all(
        json.dumps(p, sort_keys=True) == canonical for p in payloads
    ), "coalesced followers diverged from the leader's payload"

    report = ExperimentReport(
        experiment="E16b: singleflight coalescing — identical concurrent "
                   "queries share one computation",
        columns=["clients", "leaders", "coalesced_hits", "wall_ms"],
    )
    report.rows.append([
        clients, state["coalesce_leaders"], state["coalesced_hits"],
        wall_s * 1e3,
    ])
    emit(report_sink, report)
    _record("coalescing", {
        "clients": clients,
        "coalesce_leaders": state["coalesce_leaders"],
        "coalesced_hits": state["coalesced_hits"],
        "wall_s": wall_s,
    })


def _closed_loop_rps(url: str, names: list[str], *, threads: int,
                     duration_s: float) -> float:
    """Warm read-only /stcut throughput from `threads` closed-loop clients."""
    stop = time.monotonic() + duration_s
    counts = [0] * threads

    def client(i):
        j = 0
        while time.monotonic() < stop:
            name = names[(i + j) % len(names)]
            status, _ = request_status_json(
                url, "/stcut", {"graph": name, "s": 0, "t": 1}
            )
            assert status == 200
            counts[i] += 1
            j += 1

    workers = [
        threading.Thread(target=client, args=(i,)) for i in range(threads)
    ]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return sum(counts) / (time.perf_counter() - t0)


def test_e16_sharding_scales_reads(report_sink):
    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip(
            f"sharded speedup needs >= 4 CPUs (host has {cpus}): worker "
            "processes would time-slice one core"
        )

    shards = min(4, cpus)
    names = [f"g{j}" for j in range(2 * shards)]
    corpora = {
        name: [[u, v, w] for u, v, w in
               planted_cut(96, inner_degree=4, seed=10 + j).graph.edges()]
        for j, name in enumerate(names)
    }

    def run(n_shards: int) -> float:
        if n_shards == 1:
            server, frontend = _serve(CutService())
        else:
            server, frontend = _serve(None, shards=n_shards)
        try:
            for name, edges in corpora.items():
                status, _ = request_status_json(
                    server.url, "/graphs", {"name": name, "edges": edges}
                )
                assert status == 200
            # warm every oracle once so the measurement is tree walks
            for name in names:
                request_json(server.url, "/stcut",
                             {"graph": name, "s": 0, "t": 1})
            return _closed_loop_rps(
                server.url, names, threads=2 * n_shards, duration_s=2.0
            )
        finally:
            server.shutdown()
            frontend.close()

    single_rps = run(1)
    sharded_rps = run(shards)
    speedup = sharded_rps / max(single_rps, 1e-9)

    report = ExperimentReport(
        experiment="E16c: sharded read throughput vs single process",
        columns=["shards", "single_rps", "sharded_rps", "speedup"],
    )
    report.rows.append([shards, single_rps, sharded_rps, speedup])
    emit(report_sink, report)
    _record("sharding", {
        "cpus": cpus,
        "shards": shards,
        "single_rps": single_rps,
        "sharded_rps": sharded_rps,
        "speedup": speedup,
    })

    assert speedup >= 1.5, (
        f"{shards} shards gave only {speedup:.2f}x over one process"
    )
