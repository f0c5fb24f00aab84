"""The wire cost of a cached ``/gomoryhu`` reply: a round trip vs one encode.

A result-cached payload is encoded once, when it enters the result
cache; every reply built from it is the stored JSON with the graph name
and the ``cached`` flag spliced around it (``repro.service.reply``).
This benchmark times a cached planted n=256 ``/gomoryhu`` round trip
over HTTP (client send to last byte read, no client-side decode),
inline and with 2 shards, next to ``json.dumps`` of the same payload —
the encode that used to run on every reply.  It asserts the reply bytes
equal ``json.dumps(payload).encode()`` and that the inline round trip
is >= 2x faster than that ``json.dumps`` alone.

Why the floor holds on 2 CPUs: the round trip is a hit lookup, one copy
of the ~0.7 MB body and a loopback write, while the encode walks two
n×n lists of Python objects; both run single-threaded on their side.
Results go to the path in the ``BENCH_PR22`` env var
(``.bench/BENCH_PR22.json`` when unset).

Run: ``PYTHONPATH=src python -m pytest -q benchmarks/bench_wire.py``
"""

import http.client
import json
import os
import platform
import statistics
import threading
import time
import urllib.parse

import numpy as np
from conftest import emit

from repro.analysis.harness import ExperimentReport
from repro.service import CutService, make_frontend, make_server
from repro.service.http import request_status_json
from repro.workloads import planted_cut

_N = 256
_SEED = 3
_REPEATS = 25
_FLOOR = 2.0
_RESULTS_PATH = os.environ.get("BENCH_PR22", ".bench/BENCH_PR22.json")


def _round_trips(url: str, body: bytes, repeats: int) -> tuple[list, bytes]:
    """Seconds per POST /gomoryhu on one kept-alive connection."""
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=120)
    headers = {"Content-Type": "application/json"}
    times, raw = [], b""
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            conn.request("POST", "/gomoryhu", body=body, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            times.append(time.perf_counter() - t0)
            assert resp.status == 200, raw[:200]
    finally:
        conn.close()
    return times, raw


def _serve(frontend):
    srv = make_server(frontend=frontend)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    return srv


def test_cached_gomoryhu_round_trip_beats_one_encode(report_sink):
    graph = planted_cut(_N, seed=_SEED).graph
    register = {
        "name": "g", "edges": [[u, v, w] for u, v, w in graph.edges()],
    }
    body = json.dumps({"graph": "g"}).encode()
    report = ExperimentReport(
        experiment="Cached /gomoryhu: HTTP round trip vs json.dumps of its payload",
        columns=["mode", "reply_kb", "round_trip_ms", "json_dumps_ms",
                 "ratio"],
    )
    results = {
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "graph": f"planted_cut({_N}, seed={_SEED})",
        "repeats": _REPEATS,
        "floor": _FLOOR,
    }
    for mode, shards in (("inline", 1), ("shards2", 2)):
        frontend = (make_frontend(CutService()) if shards == 1
                    else make_frontend(shards=shards, service_kwargs={}))
        srv = _serve(frontend)
        try:
            status, _ = request_status_json(srv.url, "/graphs", register)
            assert status == 200
            _round_trips(srv.url, body, 1)  # the miss fills the cache
            times, raw = _round_trips(srv.url, body, _REPEATS)
        finally:
            srv.shutdown()
            srv.server_close()
            frontend.close()
        payload = json.loads(raw)
        assert payload["cached"] is True and payload["num_vertices"] == _N
        encoded = json.dumps(payload).encode()
        assert raw == encoded
        dumps = []
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            json.dumps(payload).encode()
            dumps.append(time.perf_counter() - t0)
        rtt_s, dumps_s = statistics.median(times), statistics.median(dumps)
        results[mode] = {
            "reply_bytes": len(raw),
            "round_trip_s": rtt_s,
            "json_dumps_s": dumps_s,
            "dumps_over_round_trip": dumps_s / rtt_s,
        }
        report.rows.append([
            mode, round(len(raw) / 1024, 1), round(rtt_s * 1e3, 2),
            round(dumps_s * 1e3, 2), round(dumps_s / rtt_s, 2),
        ])

    with open(_RESULTS_PATH, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit(report_sink, report)
    ratio = results["inline"]["dumps_over_round_trip"]
    assert ratio >= _FLOOR, results["inline"]
