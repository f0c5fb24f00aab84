"""Wire-layer hardening regressions (PR 8).

Four bugs in the HTTP layer, each pinned by a test that fails on the
pre-PR code:

* ``POST /graphs`` accepted non-finite edge weights (NaN poisons the
  fingerprint — NaN != NaN breaks cache keys — and every cut
  comparison), while ``/mutate`` already rejected them;
* a negative or garbage ``Content-Length`` reached ``rfile.read()``
  raw — a negative length blocks until the client closes the socket,
  pinning a handler thread indefinitely;
* a client hanging up mid-reply dumped a ``BrokenPipeError`` traceback
  from the handler thread instead of being counted;
* ``GET /trace?limit=abc`` silently ignored the bad limit and returned
  the full snapshot.

The op params are typed on the wire as their
:class:`~repro.service.ops.OpSpec` declares them: a bool field once
served ``"false"`` as true, an int field truncated ``2.9`` to 2 and
read ``true`` as 1, a negative sparsest ``trials`` was served (and
cached), and an unknown field such as a typo'd ``"preprocces"`` was
silently ignored.  Each is now a 400 carrying a ``trace_id``.

Python's ``json`` module happily *emits* ``NaN``/``Infinity`` tokens
(non-standard JSON), which is exactly how a stock client poisons the
pre-PR server — so the NaN tests go over a real socket, not through
hand-built payloads.
"""

from __future__ import annotations

import math
import socket
import struct
import threading
import time

import pytest

from repro.service import (
    CutService,
    make_server,
    request_json,
    request_status_json,
)


@pytest.fixture()
def server():
    service = CutService()
    srv = make_server(service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        service.close()


def _port(srv) -> int:
    return srv.server_address[1]


def _raw_roundtrip(port: int, request: bytes, *, timeout: float = 5.0) -> bytes:
    """Send raw bytes, return whatever the server replies within timeout."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        sock.settimeout(timeout)
        chunks = []
        try:
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
        except TimeoutError:
            pass
        return b"".join(chunks)


# ----------------------------------------------------------------------
# Non-finite edge weights at registration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_registration_rejects_non_finite_weights(server, bad):
    resp = request_json(
        server.url, "/graphs", {"name": "g", "edges": [[0, 1, bad]]}
    )
    assert "finite" in resp["error"]
    assert resp["trace_id"]
    # nothing half-registered
    assert request_json(server.url, "/graphs")["graphs"] == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_batch_registration_rejects_non_finite_weights(server, bad):
    resp = request_json(
        server.url,
        "/batch",
        {"requests": [
            {"op": "graphs", "name": "g", "edges": [["a", "b", bad]]},
            {"op": "graphs", "name": "ok", "edges": [["a", "b", 1.0]]},
        ]},
    )
    poisoned, clean = resp["responses"]
    assert "finite" in poisoned["error"] and poisoned["trace_id"]
    assert clean["name"] == "ok"  # errors stay inline, batch continues
    names = [g["name"] for g in request_json(server.url, "/graphs")["graphs"]]
    assert names == ["ok"]


def test_path_registration_rejects_non_finite_weights(server, tmp_path):
    bad_file = tmp_path / "bad.edges"
    bad_file.write_text("2\nv 0\nv 1\ne 0 1 nan\n")
    resp = request_json(
        server.url, "/graphs", {"name": "g", "path": str(bad_file)}
    )
    assert "finite" in resp["error"]
    assert request_json(server.url, "/graphs")["graphs"] == []


def test_edgelist_reader_rejects_non_finite_weights(tmp_path):
    from repro.graph import load_any

    for token in ("nan", "inf", "-inf"):
        bad_file = tmp_path / f"bad-{token.strip('-')}.edges"
        bad_file.write_text(f"2\nv 0\nv 1\ne 0 1 {token}\n")
        with pytest.raises(ValueError, match="finite"):
            load_any(bad_file)


def test_finite_weights_still_register(server):
    resp = request_json(
        server.url, "/graphs", {"name": "g", "edges": [[0, 1, 2.5], [1, 2]]}
    )
    assert resp["num_edges"] == 2
    assert math.isfinite(
        request_json(server.url, "/mincut", {"graph": "g"})["weight"]
    )


# ----------------------------------------------------------------------
# Content-Length hardening
# ----------------------------------------------------------------------
def _post(port: int, content_length: str, body: bytes = b"") -> bytes:
    request = (
        f"POST /stcut HTTP/1.1\r\n"
        f"Host: 127.0.0.1:{port}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode() + body
    return _raw_roundtrip(port, request)


def test_negative_content_length_is_400_not_a_hang(server):
    # Pre-PR: rfile.read(-5) blocks until the *client* closes, pinning
    # the handler thread.  Now it's an immediate 400.
    t0 = time.perf_counter()
    raw = _post(_port(server), "-5")
    elapsed = time.perf_counter() - t0
    assert b" 400 " in raw.splitlines()[0]
    assert b"Content-Length" in raw
    assert b"trace_id" in raw
    assert elapsed < 4.0  # far below the socket timeout: no blocking read


def test_garbage_content_length_is_400(server):
    raw = _post(_port(server), "not-a-number")
    assert b" 400 " in raw.splitlines()[0]
    assert b"Content-Length" in raw and b"trace_id" in raw


def test_zero_content_length_is_400(server):
    raw = _post(_port(server), "0")
    assert b" 400 " in raw.splitlines()[0]


def test_missing_content_length_is_400(server):
    request = (
        f"POST /stcut HTTP/1.1\r\n"
        f"Host: 127.0.0.1:{_port(server)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode()
    raw = _raw_roundtrip(_port(server), request)
    assert b" 400 " in raw.splitlines()[0]
    assert b"Content-Length" in raw


def test_server_alive_after_content_length_abuse(server):
    for value in ("-1", "0", "abc", "-99999999"):
        _post(_port(server), value)
    assert request_json(server.url, "/healthz") == {"ok": True}


# ----------------------------------------------------------------------
# Client disconnect mid-reply
# ----------------------------------------------------------------------
def test_client_disconnect_mid_reply_is_counted(server):
    service = server.service
    request_json(server.url, "/graphs", {"name": "g", "edges": [[0, 1, 1.0]]})

    release = threading.Event()
    original = service.stcut

    def slow_stcut(*args, **kwargs):
        release.wait(timeout=10)
        return original(*args, **kwargs)

    service.stcut = slow_stcut
    try:
        body = b'{"graph": "g", "s": 0, "t": 1}'
        request = (
            f"POST /stcut HTTP/1.1\r\n"
            f"Host: 127.0.0.1:{_port(server)}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        sock = socket.create_connection(("127.0.0.1", _port(server)), timeout=5)
        sock.sendall(request)
        # RST-close while the handler is still computing: the reply
        # write will hit a dead socket
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        time.sleep(0.2)
        release.set()
        counter = service.metrics.counter("http.client_disconnects")
        deadline = time.monotonic() + 5
        while counter.value == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert counter.value >= 1
    finally:
        release.set()
        service.stcut = original
    # the handler thread survived to serve the next request
    assert request_json(server.url, "/healthz") == {"ok": True}
    frontend = request_json(server.url, "/frontend")
    assert frontend["client_disconnects"] >= 1


# ----------------------------------------------------------------------
# /trace limit validation
# ----------------------------------------------------------------------
def test_trace_bad_limit_is_400(server):
    resp = request_json(server.url, "/trace?limit=abc")
    assert "limit" in resp["error"] and "abc" in resp["error"]
    assert resp["trace_id"]


def test_trace_negative_limit_is_400(server):
    resp = request_json(server.url, "/trace?limit=-3")
    assert "limit" in resp["error"]
    assert resp["trace_id"]


def test_trace_good_limit_still_works(server):
    request_json(server.url, "/healthz")
    resp = request_json(server.url, "/trace?limit=2")
    assert len(resp["spans"]) <= 2
    assert "stats" in resp


# ----------------------------------------------------------------------
# Op params are typed on the wire (repro.service.ops)
# ----------------------------------------------------------------------
def _register_triangle(srv):
    request_json(srv.url, "/graphs", {
        "name": "g", "edges": [[0, 1, 2.0], [1, 2, 1.0], [0, 2, 1.0]],
    })


def _rejected(srv, path, body, *fragments):
    status, resp = request_status_json(srv.url, path, body)
    assert status == 400, (path, body, status, resp)
    assert resp["trace_id"]
    for fragment in fragments:
        assert fragment in resp["error"]
    return resp


@pytest.mark.parametrize("path, field, value", [
    ("/gomoryhu", "sides", "false"),
    ("/sparsestcut", "kernel", "no"),
    ("/sparsestcut", "kernel", 0),
])
def test_bool_fields_take_only_json_booleans(server, path, field, value):
    _register_triangle(server)
    _rejected(server, path, {"graph": "g", field: value}, repr(field),
              "boolean")


@pytest.mark.parametrize("value", [2.9, True, "3"])
def test_int_fields_reject_bools_fractions_and_strings(server, value):
    _register_triangle(server)
    for path in ("/mincut", "/sparsestcut"):
        _rejected(server, path, {"graph": "g", "seed": value}, "'seed'",
                  "integer")


def test_negative_sparsest_trials_rejected_and_not_cached(server):
    _register_triangle(server)
    before = server.service.results.stats()
    _rejected(server, "/sparsestcut", {"graph": "g", "trials": -5},
              "'trials'", "non-negative")
    assert server.service.results.stats() == before


def test_unknown_field_is_named(server):
    _register_triangle(server)
    _rejected(server, "/mincut", {"graph": "g", "preprocces": "safe"},
              "'preprocces'")


def test_batch_items_may_carry_op_but_not_unknown_fields(server):
    _register_triangle(server)
    resp = request_json(server.url, "/batch", {"requests": [
        {"op": "stcut", "graph": "g", "s": 0, "t": 1},
        {"op": "mincut", "graph": "g", "preprocces": "safe"},
    ]})
    ok, bad = resp["responses"]
    assert ok["weight"] == 3.0
    assert "'preprocces'" in bad["error"] and bad["trace_id"]


def test_null_means_the_default(server):
    _register_triangle(server)
    explicit = request_json(
        server.url, "/sparsestcut", {"graph": "g", "seed": 0, "trials": 2}
    )
    nulls = request_json(
        server.url, "/sparsestcut", {"graph": "g", "seed": None,
                                     "trials": None, "kernel": None}
    )
    assert nulls["cached"] and nulls["side"] == explicit["side"]
