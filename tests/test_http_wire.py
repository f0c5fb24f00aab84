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
silently ignored.  Each is now a 400 carrying a ``trace_id``.  Edge
weights follow the same number rule: ``POST /graphs`` edges and
``/mutate`` ``adds``/``reweights`` rows once read ``true`` as 1.0 and
``"2.5"`` as 2.5, and now answer 400 naming the row.  Each entry of a
``/mutate`` ``deltas`` list is typed as the top-level delta fields are:
a misspelled key, an unknown key beside valid rows, or a non-list
``adds`` was once a silent no-op answering 200, and now answers 400
naming the entry and the field; a bad row's 400 names its entry too.
``/kernelize`` once answered 200 to a ``k`` outside ``1..n`` and
cached a "k-cut kernel" for each such ``k``, and ``/mincut`` and
``/kcut`` ran any ``trials`` asked for, as did ``/sparsestcut``; each
now answers 400 naming the field.  ``POST /frontend`` once read
``true`` as 1 and ``"8"`` as 8 and truncated ``2.7`` to 2; its two
counts now take integers and its two times JSON numbers.

Wire-level errors once came from the stdlib request parser: a one-word
request line or an ``HTTP/2.0`` request got a bare HTML page with no
status line, the 414, 431 and 501 errors came back as ``text/html``,
and of two conflicting ``Content-Length`` headers the first silently
won.  Each is now an ``HTTP/1.0 <code>`` JSON ``{"error", "trace_id"}``
reply (a conflicting length is a 400).  The handler threads are reused
across connections: sequential requests share them, a reused thread
starts each request under a fresh root span, and ``server_close()``
releases the idle ones.

Python's ``json`` module happily *emits* ``NaN``/``Infinity`` tokens
(non-standard JSON), which is exactly how a stock client poisons the
pre-PR server — so the NaN tests go over a real socket, not through
hand-built payloads.
"""

from __future__ import annotations

import json
import math
import socket
import struct
import sys
import threading
import time

import pytest

from repro.service import (
    CutService,
    make_server,
    request_json,
    request_status_json,
)
from repro.service.ops import MAX_TRIALS
from conftest import serving


@pytest.fixture()
def server():
    service = CutService()
    with serving(make_server(service)) as srv:
        yield srv
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


# ----------------------------------------------------------------------
# Edge weights are JSON numbers: never booleans or numeric strings
# ----------------------------------------------------------------------
NOT_NUMBERS = [True, False, "2.5", None, [1.0]]


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
def test_registration_rejects_non_number_weights(server, bad):
    # Before: true registered as 1.0 and "2.5" as 2.5.
    status, resp = request_status_json(
        server.url, "/graphs",
        {"name": "g", "edges": [[0, 1, 1.0], [1, 2, bad]]},
    )
    assert status == 400
    assert "[1, 2, " in resp["error"] and "must be a number" in resp["error"]
    assert resp["trace_id"]
    assert request_json(server.url, "/graphs")["graphs"] == []


@pytest.mark.parametrize("kind", ["adds", "reweights"])
@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
def test_mutate_rejects_non_number_weights(server, kind, bad):
    request_json(server.url, "/graphs",
                 {"name": "g", "edges": [[0, 1, 1.0], [1, 2, 2.0]]})
    fingerprint = request_json(server.url, "/graphs")["graphs"][0][
        "fingerprint"]
    status, resp = request_status_json(
        server.url, "/mutate", {"graph": "g", kind: [[0, 1, bad]]}
    )
    assert status == 400
    assert f"in delta {kind}" in resp["error"]
    assert "[0, 1, " in resp["error"] and "must be a number" in resp["error"]
    (row,) = request_json(server.url, "/graphs")["graphs"]
    assert row["fingerprint"] == fingerprint and row["generation"] == 0


@pytest.mark.parametrize("bad", [True, "2.5"], ids=repr)
def test_library_parsers_reject_non_number_weights(bad):
    from repro.service import GraphDelta
    from repro.service.frontend import parse_registration
    from repro.service.ops import BadRequest

    with pytest.raises(BadRequest, match="must be a number"):
        parse_registration({"name": "g", "edges": [[0, 1, bad]]})
    for kind in ("adds", "reweights"):
        with pytest.raises(ValueError, match=f"delta {kind}.*must be a number"):
            GraphDelta.from_json({kind: [[0, 1, bad]]})
    with CutService() as service:
        service.register("g", parse_registration(
            {"name": "g", "edges": [[0, 1, 1], [1, 2, 2.5]]})[1])
        with pytest.raises(ValueError, match="must be a number"):
            service.mutate("g", adds=[[0, 2, bad]])


def test_integer_and_float_weights_still_parse():
    from repro.service import GraphDelta
    from repro.service.frontend import parse_registration

    _, graph = parse_registration(
        {"name": "g", "edges": [[0, 1, 3], [1, 2, 2.5], [2, 0]]})
    assert sorted(graph.edges()) == [(0, 1, 3.0), (0, 2, 1.0), (1, 2, 2.5)]
    delta = GraphDelta.from_json({"adds": [[0, 1, 2]],
                                  "reweights": [[1, 2, 0.5]]})
    assert delta.adds == ((0, 1, 2.0),) and delta.reweights == ((1, 2, 0.5),)


def test_finite_weights_still_register(server):
    resp = request_json(
        server.url, "/graphs", {"name": "g", "edges": [[0, 1, 2.5], [1, 2]]}
    )
    assert resp["num_edges"] == 2
    assert math.isfinite(
        request_json(server.url, "/mincut", {"graph": "g"})["weight"]
    )


# ----------------------------------------------------------------------
# Vertex ids are integers or strings: never booleans, null or floats
# ----------------------------------------------------------------------
NOT_VERTEX_IDS = [True, False, None, 1.5, [1]]


@pytest.mark.parametrize("bad", NOT_VERTEX_IDS, ids=repr)
def test_registration_rejects_non_vertex_ids(server, bad):
    # Before: null and 1.5 registered unaddressable vertices, and a
    # vertices list [true, 1] merged 1 into true.
    for body in (
        {"name": "g", "edges": [[0, 1], [bad, 1]]},
        {"name": "g", "edges": [[1, 2]], "vertices": [bad, 1]},
    ):
        status, resp = request_status_json(server.url, "/graphs", body)
        assert status == 400, (body, resp)
        assert repr(bad) in resp["error"] and resp["trace_id"]
    assert request_json(server.url, "/graphs")["graphs"] == []


@pytest.mark.parametrize("kind", ["adds", "removes", "reweights"])
@pytest.mark.parametrize("bad", NOT_VERTEX_IDS, ids=repr)
def test_mutate_rejects_non_vertex_ids(server, kind, bad):
    # Before: adds [[true, 7, 1.0]] on a triangle added the edge 1 -- 7.
    _register_triangle(server)
    (before,) = request_json(server.url, "/graphs")["graphs"]
    row = [bad, 7] if kind == "removes" else [bad, 7, 1.0]
    status, resp = request_status_json(
        server.url, "/mutate", {"graph": "g", kind: [row]}
    )
    assert status == 400
    assert f"bad row {row!r} in delta {kind}" in resp["error"]
    assert "integers or strings" in resp["error"]
    (after,) = request_json(server.url, "/graphs")["graphs"]
    assert after == before


def test_int_and_string_vertex_ids_still_register(server):
    request_json(server.url, "/graphs", {
        "name": "g", "vertices": ["x", 5], "edges": [["x", 0, 2.0], [0, 5]],
    })
    assert request_json(
        server.url, "/stcut", {"graph": "g", "s": "x", "t": 5}
    )["weight"] == 1.0


@pytest.mark.parametrize("bad", [5, None, {"0": 1}, "01", True], ids=repr)
def test_registration_rejects_non_list_edges(server, bad):
    # Before: 5 and null answered "'int'/'NoneType' object is not
    # iterable", and {"0": 1} and "01" iterated to "bad edge '0'".
    status, resp = request_status_json(
        server.url, "/graphs", {"name": "g", "edges": bad}
    )
    assert status == 400, resp
    assert resp["error"] == f"field 'edges' must be a list, got {bad!r}"
    assert resp["trace_id"]
    assert request_json(server.url, "/graphs")["graphs"] == []


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


@pytest.mark.parametrize("entry, field", [
    ({"add": [[0, 1, 1.0]]}, "'add'"),
    ({"adds": False}, "'adds'"),
    ({"adds": 0}, "'adds'"),
    ({"adds": {}}, "'adds'"),
    ({"adds": [[0, 1, 1.0]], "bogus": 1}, "'bogus'"),
    ({"adds": [[True, 1, 1.0]]}, "in delta adds"),
], ids=["misspelled", "false", "zero", "object", "unknown-beside-rows",
        "bad-row"])
def test_mutate_delta_entries_are_typed(server, entry, field):
    # Before: each answered 200 and applied nothing of the bad entry
    # (the unknown key beside valid rows applied the rows).
    _register_triangle(server)
    (before,) = request_json(server.url, "/graphs")["graphs"]
    body = {"graph": "g", "deltas": [{"adds": [[0, 3, 1.0]]}, entry]}
    _rejected(server, "/mutate", body, "deltas[1]", field)
    (after,) = request_json(server.url, "/graphs")["graphs"]
    assert after == before  # entries are checked before any applies


def test_mutate_valid_delta_entries_still_apply(server):
    _register_triangle(server)
    resp = request_json(server.url, "/mutate", {"graph": "g", "deltas": [
        {"adds": [[0, 3, 1.0]]},
        {"removes": [[0, 3]], "reweights": None},
        {},
    ]})
    assert resp["generation"] == 2 and len(resp["deltas"]) == 3


# ----------------------------------------------------------------------
# Out-of-range k and trials
# ----------------------------------------------------------------------
def _register_cycle8(srv):
    request_json(srv.url, "/graphs", {
        "name": "g", "edges": [[i, (i + 1) % 8, 1.0] for i in range(8)],
    })
    return srv.service.store.get("g").fingerprint


@pytest.mark.parametrize("k", [0, -2, 100])
def test_kernelize_rejects_k_outside_1_to_n(server, k):
    # Before: 200, and a kernel cached under ("kcut", k, "safe").
    fp = _register_cycle8(server)
    for path in ("/kernelize", "/kcut"):
        _rejected(server, path, {"graph": "g", "k": k},
                  f"need 1 <= k <= n, got k={k}, n=8")
    assert server.service.store.cached_kernel(fp, ("kcut", k, "safe")) is None


def test_kernelize_in_range_k_still_answers(server):
    _register_cycle8(server)
    for k in range(1, 9):
        resp = request_json(server.url, "/kernelize", {"graph": "g", "k": k})
        assert resp["k"] == k and resp["kernel"]["k"] == k


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 3000, 10**9])
@pytest.mark.parametrize("path, fields", [("/mincut", {}), ("/kcut", {"k": 2})])
def test_trials_above_the_limit_rejected(server, path, fields, trials):
    # Before: 3000 trials ran for seconds and answered 200; 10**9 built
    # 10**9 trial seeds before the first trial.
    _register_cycle8(server)
    before = server.service.results.stats()
    _rejected(server, path, {"graph": "g", "trials": trials, **fields},
              "'trials'", f"no greater than {MAX_TRIALS}")
    assert server.service.results.stats() == before


def test_batch_trials_above_the_limit_rejected(server):
    _register_cycle8(server)
    resp = request_json(server.url, "/batch", {"requests": [
        {"op": "mincut", "graph": "g", "trials": 2},
        {"op": "kcut", "graph": "g", "k": 2, "trials": MAX_TRIALS + 1},
    ]})
    ok, bad = resp["responses"]
    assert ok["trials"] == 2 and ok["weight"] == 2.0
    assert "'trials'" in bad["error"] and bad["trace_id"]


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**9])
def test_sparsestcut_trials_above_the_limit_rejected(server, trials):
    # Before: any count bound, and the refine ran one restart per trial
    # (0.77 s at 2000 trials on n=24), then cached the answer.
    _register_cycle8(server)
    before = server.service.results.stats()
    body = {"graph": "g", "trials": trials}
    _rejected(server, "/sparsestcut", body,
              "'trials'", f"no greater than {MAX_TRIALS}")
    resp = request_json(server.url, "/batch", {"requests": [
        {"op": "sparsestcut", **body},
    ]})
    (bad,) = resp["responses"]
    assert "'trials'" in bad["error"] and bad["trace_id"]
    assert f"no greater than {MAX_TRIALS}" in bad["error"]
    assert server.service.results.stats() == before


@pytest.mark.parametrize("trials", [0, 1, 2, MAX_TRIALS])
def test_sparsestcut_trials_within_the_limit_answer(server, trials):
    _register_cycle8(server)
    resp = request_json(server.url, "/sparsestcut",
                        {"graph": "g", "trials": trials})
    assert resp["trials"] == trials and resp["weight"] == 2.0


# ----------------------------------------------------------------------
# POST /frontend is typed like the op params
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field, value", [
    ("max_inflight", True), ("max_inflight", "8"), ("max_queue", 2.7),
    ("max_queue", "2"), ("queue_timeout_s", True),
    ("queue_timeout_s", "1.5"), ("retry_after_s", False),
])
def test_frontend_settings_are_typed(server, field, value):
    before = request_json(server.url, "/frontend")
    other = "max_queue" if field != "max_queue" else "max_inflight"
    status, resp = request_status_json(
        server.url, "/frontend", {other: 7, field: value}
    )
    assert status == 400 and repr(field) in resp["error"], resp
    # a rejected update applies none of its fields
    assert request_json(server.url, "/frontend") == before


def test_frontend_settings_take_integers_and_numbers(server):
    resp = request_json(server.url, "/frontend", {
        "max_inflight": 8, "max_queue": 2.0, "queue_timeout_s": 3,
        "retry_after_s": 0.5,
    })
    assert (resp["max_inflight"], resp["max_queue"], resp["queue_timeout_s"],
            resp["retry_after_s"]) == (8, 2, 3.0, 0.5)


# ----------------------------------------------------------------------
# Wire-level errors are JSON replies with a status line
# ----------------------------------------------------------------------
def _json_error(raw: bytes, status: int) -> str:
    """Assert an ``HTTP/1.0 <status>`` JSON error reply; its message."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].startswith(f"HTTP/1.0 {status} "), raw[:200]
    assert "Content-Type: application/json" in lines[1:], lines
    assert f"Content-Length: {len(body)}" in lines[1:], lines
    payload = json.loads(body)
    assert set(payload) == {"error", "trace_id"} and payload["trace_id"]
    return payload["error"]


# Each request is sent whole and read whole by the server before it
# answers (an over-long line is exactly one byte too long), so closing
# the socket never resets the connection under the reply.
@pytest.mark.parametrize("request_bytes, status, words", [
    (b"HELLO\r\n\r\n", 400, "HELLO"),
    (b"GET /healthz\r\n\r\n", 400, "/healthz"),
    (b"GET /healthz HTTP/2.0\r\n\r\n", 505, "2.0"),
    (b"GET /healthz HTTP/1\r\n\r\n", 400, "HTTP/1"),
    (b"PUT /stcut HTTP/1.0\r\n\r\n", 501, "PUT"),
    (b"GET /" + b"a" * (65537 - 5), 414, "65536"),
    (b"GET /healthz HTTP/1.0\r\nX: " + b"a" * (65537 - 3), 431, "65536"),
    (b"GET /healthz HTTP/1.0\r\n" + b"X-A: 1\r\n" * 101 + b"\r\n", 431,
     "100"),
    (b"GET /healthz HTTP/1.0\r\nno colon here\r\n\r\n", 400, "header"),
], ids=["one-word", "two-words", "http2", "bad-version", "put",
        "long-request-line", "long-header-line", "101-headers",
        "no-colon"])
def test_wire_level_errors_are_json(server, request_bytes, status, words):
    message = _json_error(_raw_roundtrip(_port(server), request_bytes), status)
    assert words in message
    assert request_json(server.url, "/healthz") == {"ok": True}


def test_wire_level_error_trace_id_resolves(server):
    raw = _raw_roundtrip(_port(server), b"PUT /stcut HTTP/1.0\r\n\r\n")
    trace_id = json.loads(raw.partition(b"\r\n\r\n")[2])["trace_id"]
    spans = request_json(server.url, "/trace")["spans"]
    roots = [s for s in spans if s["trace_id"] == trace_id]
    assert [s["attrs"]["status"] for s in roots] == [501]


def test_conflicting_content_lengths_are_400(server):
    body = json.dumps({"graph": "nope", "s": 0, "t": 1}).encode()
    raw = _raw_roundtrip(_port(server), (
        f"POST /stcut HTTP/1.0\r\nContent-Length: {len(body)}\r\n"
        f"content-length: {len(body) + 1}\r\n\r\n"
    ).encode() + body)
    assert "conflicting Content-Length" in _json_error(raw, 400)
    # a repeated, equal Content-Length is one length
    raw = _raw_roundtrip(_port(server), (
        f"POST /stcut HTTP/1.0\r\nContent-Length: {len(body)}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body)
    assert "no graph registered" in _json_error(raw, 404)


# ----------------------------------------------------------------------
# Handler threads are reused, and released on close
# ----------------------------------------------------------------------
def _handler_threads(srv) -> list:
    name = f"repro-http:{_port(srv)}"
    return [t for t in threading.enumerate() if t.name == name]


def test_sequential_requests_reuse_handler_threads(server):
    for _ in range(50):
        raw = _raw_roundtrip(_port(server), b"GET /healthz HTTP/1.0\r\n\r\n")
        assert raw.startswith(b"HTTP/1.0 200 OK\r\n")
    assert 1 <= len(_handler_threads(server)) <= 2


def test_reused_thread_starts_a_fresh_root_span(server):
    for _ in range(2):
        _raw_roundtrip(_port(server), b"GET /healthz HTTP/1.0\r\n\r\n")
        time.sleep(0.05)  # the thread is back on the idle stack
    assert len(_handler_threads(server)) == 1
    spans = request_json(server.url, "/trace")["spans"]
    roots = [s for s in spans if s["name"] == "http.request"]
    assert [s["attrs"]["path"] for s in roots[:2]] == ["/healthz"] * 2
    assert [s["parent_id"] for s in roots[:2]] == [None, None]
    assert roots[0]["trace_id"] != roots[1]["trace_id"]


def test_server_close_releases_handler_threads():
    service = CutService()
    srv = make_server(service)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    port = _port(srv)
    held = [socket.create_connection(("127.0.0.1", port)) for _ in range(2)]
    try:
        assert request_json(srv.url, "/healthz") == {"ok": True}
        assert len(_handler_threads(srv)) == 3
    finally:
        for sock in held:  # a silent connection reads EOF: idle again
            sock.close()
    time.sleep(0.1)
    srv.shutdown()
    srv.server_close()
    service.close()
    deadline = time.monotonic() + 1.0
    while _handler_threads(srv) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert _handler_threads(srv) == []


def test_concurrent_clients_leave_every_thread_idle(server):
    """Stress the idle stack: many clients at once, with a short switch
    interval.  Every reply arrives, and once the last connection is done
    every started handler thread is on the idle stack exactly once (a
    lost or doubled hand-off would break the count)."""
    errors = []

    def client():
        try:
            for _ in range(20):
                raw = _raw_roundtrip(
                    _port(server), b"GET /healthz HTTP/1.0\r\n\r\n"
                )
                assert raw.startswith(b"HTTP/1.0 200 OK\r\n"), raw[:80]
        except Exception as exc:  # noqa: BLE001 (reported below)
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client) for _ in range(8)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in clients)
    assert errors == []
    deadline = time.monotonic() + 5
    while (len(server._idle) != len(_handler_threads(server))
           and time.monotonic() < deadline):
        time.sleep(0.02)
    threads = _handler_threads(server)
    assert 1 <= len(threads) and len(server._idle) == len(threads)
    assert len({id(slot) for slot in server._idle}) == len(threads)
