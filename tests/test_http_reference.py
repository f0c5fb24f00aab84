"""The program's wire layer answers exactly as the frozen reference does.

``tests/http_reference.py`` keeps the stdlib-backed server the wire
layer replaced (one thread per connection, the ``email`` header parser,
a reply written header by header).  A raw-request corpus is replayed,
request by request, against the program's server and the reference,
each in front of its own fresh service, and every reply must match:
the same status line, the same body bytes once ``trace_id`` and
wall-clock fields are set aside, and the same header names in the same
order apart from ``Date``.

The corpus covers every served op on a miss and on a cached hit (the
planted n=256 ``/gomoryhu`` hit is the ~0.7 MB reply), 400, 404, 409
and a 429 with ``Retry-After``, ``/batch``, the GET endpoints, HTTP/1.1
requests with and without ``Connection: close`` and lower-case header
names.  Wire-level errors are left out on purpose: the reference
answers some of them without a status line (see
``tests/test_http_wire.py``).
"""

from __future__ import annotations

import json
import socket

import pytest

from http_reference import make_reference_server
from repro.service import CutService, make_frontend, make_server
from repro.workloads import planted_cut
from conftest import serving

#: keys whose values are per-run: trace ids, wall-clock readings and
#: the result cache's byte count (a cached reply's ``elapsed_s`` text
#: varies in length)
_VOLATILE = {"trace_id", "elapsed_s", "uptime_s", "bytes", "results.bytes"}
#: GET bodies made of latency histograms, timers and span clocks: every
#: float is a wall-clock reading, so floats are compared by position only
_TIMED = {"/stats", "/metrics", "/trace"}


def _edges(graph) -> list:
    return [[u, v, w] for u, v, w in graph.edges()]


def _request(method, path, body=None, *, version="HTTP/1.0", lower=False,
             extra=()) -> bytes:
    data = b"" if body is None else json.dumps(body).encode()
    headers = [("Host", "127.0.0.1"), *extra]
    if body is not None:
        headers += [("Content-Type", "application/json"),
                    ("Content-Length", str(len(data)))]
    if lower:
        headers = [(k.lower(), v) for k, v in headers]
    head = f"{method} {path} {version}\r\n" + "".join(
        f"{k}: {v}\r\n" for k, v in headers
    )
    return (head + "\r\n").encode() + data


def _corpus() -> list[bytes]:
    small = _edges(planted_cut(64, seed=9).graph)
    big = _edges(planted_cut(256, seed=3).graph)
    queries = [
        ("mincut", {"graph": "g", "trials": 2, "seed": 1}),
        ("kcut", {"graph": "g", "k": 3, "seed": 1}),
        ("stcut", {"graph": "g", "s": 0, "t": 40}),
        ("gomoryhu", {"graph": "g"}),
        ("sparsestcut", {"graph": "g", "seed": 1}),
        ("kernelize", {"graph": "g"}),
        ("gomoryhu", {"graph": "big"}),
    ]
    out = [
        _request("GET", "/healthz"),
        _request("POST", "/graphs", {"name": "g", "edges": small}),
        _request("POST", "/graphs", {"name": "big", "edges": big}),
    ]
    for op, body in queries:  # a miss, then a cached hit
        out += [_request("POST", f"/{op}", body)] * 2
    out += [
        _request("POST", "/mutate", {"graph": "g", "adds": [[0, 5, 1.0]]}),
        _request("POST", "/mutate", {"graph": "g", "adds": [[1, 6, 2.0]]}),
        _request("POST", "/stcut", {"graph": "g", "s": 0, "t": 5}),
        _request("POST", "/batch", {"requests": [
            {"op": "stcut", "graph": "g", "s": 1, "t": 2},
            {"op": "kcut", "graph": "g", "k": 2},
            {"op": "stcut", "graph": "nope", "s": 1, "t": 2},
        ]}),
        # 400, 404, 409
        _request("POST", "/stcut", {"graph": "g", "s": True, "t": 2}),
        _request("POST", "/stcut", {"graph": "g", "s": 0, "t": 2, "x": 1}),
        _request("POST", "/stcut", {"graph": "nope", "s": 0, "t": 2}),
        _request("GET", "/nope"),
        _request("GET", "/trace?limit=abc"),
        _request("POST", "/mutate", {
            "graph": "g", "adds": [[0, 7, 1.0]],
            "expected_fingerprint": "0" * 16,
        }),
        # a 429 with Retry-After, then the window back
        _request("POST", "/frontend", {"max_inflight": 0, "max_queue": 0}),
        _request("POST", "/stcut", {"graph": "g", "s": 0, "t": 3}),
        _request("POST", "/frontend", {"max_inflight": 64, "max_queue": 256}),
        # HTTP/1.1, with and without Connection: close; lower-case names
        _request("POST", "/stcut", {"graph": "g", "s": 0, "t": 3},
                 version="HTTP/1.1"),
        _request("POST", "/stcut", {"graph": "g", "s": 0, "t": 3},
                 version="HTTP/1.1", extra=[("Connection", "close")]),
        _request("POST", "/stcut", {"graph": "g", "s": 0, "t": 4},
                 version="HTTP/1.1", lower=True,
                 extra=[("Connection", "keep-alive")]),
        _request("POST", "/kcut", {"graph": "g", "k": 2}, lower=True),
        _request("GET", "/healthz", version="HTTP/1.1", lower=True),
        # the GET endpoints
        _request("GET", "/graphs"),
        _request("GET", "/frontend"),
        _request("GET", "/trace?limit=0"),
        _request("GET", "/stats"),
        _request("GET", "/metrics"),
        _request("POST", "/evict", {"graph": "big"}),
        _request("POST", "/evict", {"graph": "big"}),
    ]
    return out


def _exchange(port: int, request: bytes) -> bytes:
    """Send one raw request; read the reply until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(1 << 20):
            chunks.append(chunk)
    return b"".join(chunks)


def _strip(obj, timed: bool):
    if isinstance(obj, dict):
        return {
            k: _strip(v, timed) for k, v in obj.items() if k not in _VOLATILE
        }
    if isinstance(obj, list):
        return [_strip(v, timed) for v in obj]
    if timed and isinstance(obj, float):
        return "<float>"
    return obj


def _view(request: bytes, raw: bytes) -> tuple:
    """(status line, header names but Date, normalized body text)."""
    head, _, body = raw.partition(b"\r\n\r\n")
    status, *lines = head.decode("latin-1").split("\r\n")
    names = [line.split(":", 1)[0] for line in lines]
    assert names.count("Date") == 1, names
    path = request.split(b" ", 2)[1].decode().split("?")[0]
    text = json.dumps(_strip(json.loads(body), path in _TIMED))
    return status, [n for n in names if n != "Date"], text


@pytest.fixture(scope="module")
def servers():
    frontends = [make_frontend(CutService()) for _ in range(2)]
    with serving(make_server(frontend=frontends[0])) as program, \
            serving(make_reference_server(frontends[1])) as reference:
        yield [program, reference]
    for frontend in frontends:
        frontend.close()


def test_replies_match_the_frozen_reference(servers):
    program, reference = (srv.server_address[1] for srv in servers)
    statuses, sizes = set(), []
    for request in _corpus():
        got = _exchange(program, request)
        want = _exchange(reference, request)
        view = _view(request, got)
        assert view == _view(request, want), request[:120]
        statuses.add(int(view[0].split()[1]))
        sizes.append(len(got))
        if view[0].startswith("HTTP/1.0 429"):
            assert "Retry-After" in view[1]
    assert {200, 400, 404, 409, 429} <= statuses
    assert max(sizes) > 600_000  # the cached planted n=256 /gomoryhu
