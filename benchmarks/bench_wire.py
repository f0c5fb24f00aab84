"""Wire-layer costs: a cached ``/gomoryhu`` reply, and a small request.

**Large reply.**
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

**Small request.**  A cached ``/stcut`` on planted n=64, one fresh
connection per request read to EOF (as perfbench's client sends them),
against the program's server and the frozen reference server
(``tests/http_reference.py``: stdlib ``ThreadingHTTPServer``, one new
thread per connection, the ``email`` header parser, a reply written
header by header).  Both serve the same frontend, in alternating
rounds, so host drift hits both alike.  It asserts equal replies
(apart from ``elapsed_s``) and that the program's median round trip
is >= 1.3x faster.
Why the floor holds on 2 CPUs: no solver runs, so the round trip is
the wire (thread start vs hand-off, header parse, reply writes) plus
one oracle hit, with the client, accept loop and handler taking turns
on one interpreter lock on both sides.  Results go to the path in the
``BENCH_PR33`` env var (``.bench/BENCH_PR33.json`` when unset).

Run: ``PYTHONPATH=src python -m pytest -q benchmarks/bench_wire.py``
"""

import http.client
import json
import os
import platform
import socket
import statistics
import sys
import threading
import time
import urllib.parse
from pathlib import Path

import numpy as np
from conftest import emit

from repro.analysis.harness import ExperimentReport
from repro.service import CutService, make_frontend, make_server
from repro.service.http import request_status_json
from repro.workloads import planted_cut

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from http_reference import make_reference_server  # noqa: E402

_N = 256
_SEED = 3
_REPEATS = 25
_FLOOR = 2.0
_RESULTS_PATH = os.environ.get("BENCH_PR22", ".bench/BENCH_PR22.json")
_SMALL_N = 64
_SMALL_ROUNDS = 10
_SMALL_PER_ROUND = 100
_SMALL_FLOOR = 1.3
_SMALL_PATH = os.environ.get("BENCH_PR33", ".bench/BENCH_PR33.json")


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


def _serve(srv):
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    return srv


def _host() -> dict:
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _fresh_connection_posts(port: int, request: bytes, repeats: int):
    """Seconds per request, each on a new connection read to EOF."""
    times, raw = [], b""
    for _ in range(repeats):
        t0 = time.perf_counter()
        with socket.create_connection(("127.0.0.1", port), timeout=60) as s:
            s.sendall(request)
            chunks = []
            while chunk := s.recv(65536):
                chunks.append(chunk)
        times.append(time.perf_counter() - t0)
        raw = b"".join(chunks)
    return times, raw


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
        "host": _host(),
        "graph": f"planted_cut({_N}, seed={_SEED})",
        "repeats": _REPEATS,
        "floor": _FLOOR,
    }
    for mode, shards in (("inline", 1), ("shards2", 2)):
        frontend = (make_frontend(CutService()) if shards == 1
                    else make_frontend(shards=shards, service_kwargs={}))
        srv = _serve(make_server(frontend=frontend))
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


def test_cached_stcut_round_trip_beats_the_reference_wire(report_sink):
    graph = planted_cut(_SMALL_N, seed=_SEED).graph
    frontend = make_frontend(CutService())
    servers = {
        "program": _serve(make_server(frontend=frontend)),
        "reference": _serve(make_reference_server(frontend)),
    }
    body = json.dumps({"graph": "g", "s": 0, "t": _SMALL_N // 2}).encode()
    request = (
        f"POST /stcut HTTP/1.0\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body
    times = {name: [] for name in servers}
    bodies = {}
    try:
        status, _ = request_status_json(
            servers["program"].url, "/graphs",
            {"name": "g", "edges": [[u, v, w] for u, v, w in graph.edges()]},
        )
        assert status == 200
        for srv in servers.values():  # warm: oracle built, threads started
            _fresh_connection_posts(srv.server_address[1], request, 5)
        for r in range(_SMALL_ROUNDS):
            order = list(servers) if r % 2 == 0 else list(servers)[::-1]
            for name in order:
                port = servers[name].server_address[1]
                got, raw = _fresh_connection_posts(
                    port, request, _SMALL_PER_ROUND
                )
                times[name] += got
                head, _, bodies[name] = raw.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.0 200 "), head
    finally:
        for srv in servers.values():
            srv.shutdown()
            srv.server_close()
        frontend.close()
    replies = {name: json.loads(raw) for name, raw in bodies.items()}
    for reply in replies.values():
        reply.pop("elapsed_s")
    assert replies["program"] == replies["reference"]
    assert replies["program"]["cached"] is True
    medians = {name: statistics.median(ts) for name, ts in times.items()}
    speedup = medians["reference"] / medians["program"]
    results = {
        "host": _host(),
        "graph": f"planted_cut({_SMALL_N}, seed={_SEED})",
        "op": "cached /stcut, one fresh connection per request",
        "rounds": _SMALL_ROUNDS,
        "requests_per_round": _SMALL_PER_ROUND,
        "floor": _SMALL_FLOOR,
        "reply_bytes": len(bodies["program"]),
        "program_median_s": medians["program"],
        "reference_median_s": medians["reference"],
        "speedup": speedup,
    }
    with open(_SMALL_PATH, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    report = ExperimentReport(
        experiment="Cached /stcut round trip: program vs frozen wire layer",
        columns=["server", "median_ms", "p90_ms"],
    )
    for name, ts in times.items():
        report.rows.append([
            name, round(medians[name] * 1e3, 3),
            round(statistics.quantiles(ts, n=10)[-1] * 1e3, 3),
        ])
    emit(report_sink, report)
    assert speedup >= _SMALL_FLOOR, results
