"""The bounded, coalescing, sharded serving tier (PR 8 tentpole).

Covers the three mechanisms of :mod:`repro.service.frontend` plus the
acceptance harnesses:

* **admission control** — bounded in-flight window + bounded wait
  queue; over-capacity requests shed with 429 + ``Retry-After``, a
  queued request that gets a slot in time succeeds (with a
  ``queue.wait`` span), and runtime reconfiguration via ``/frontend``;
* **coalescing** — identical concurrent read queries share one
  computation (``coalesced_hits``), different queries don't, and a
  mutation between arrivals splits flights (fingerprint keying);
* **sharding** — the consistent-hash ring is deterministic and stable
  under resize, and a **differential harness** proves the 2-shard
  multiprocess server answers bit-identically to the single-process
  service over the whole cut corpus;
* **isolation** — one stalled client connection cannot starve the
  in-flight window (admission happens after the body is read).
"""

from __future__ import annotations

import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import (
    AdmissionGate,
    CutService,
    HashRing,
    Overloaded,
    make_frontend,
    make_server,
    request_json,
    request_status_json,
)

from cutcorpus import connected_corpus
from conftest import serving


# ----------------------------------------------------------------------
# AdmissionGate unit tests
# ----------------------------------------------------------------------
class TestAdmissionGate:
    def test_acquire_release_window(self):
        gate = AdmissionGate(max_inflight=2, max_queue=0)
        assert gate.acquire() == 0.0
        assert gate.acquire() == 0.0
        with pytest.raises(Overloaded):
            gate.acquire()
        gate.release()
        assert gate.acquire() == 0.0
        assert gate.inflight == 2

    def test_full_queue_sheds_immediately(self):
        gate = AdmissionGate(max_inflight=1, max_queue=0, queue_timeout_s=30)
        gate.acquire()
        t0 = time.perf_counter()
        with pytest.raises(Overloaded) as exc:
            gate.acquire()
        assert time.perf_counter() - t0 < 1.0  # no 30s wait
        assert exc.value.retry_after_s == gate.retry_after_s

    def test_queue_timeout_sheds(self):
        gate = AdmissionGate(
            max_inflight=1, max_queue=4, queue_timeout_s=0.05
        )
        gate.acquire()
        with pytest.raises(Overloaded, match="at capacity"):
            gate.acquire()

    def test_queued_request_admitted_when_slot_frees(self):
        gate = AdmissionGate(max_inflight=1, max_queue=4, queue_timeout_s=5)
        gate.acquire()
        waited = []

        def contender():
            waited.append(gate.acquire())

        t = threading.Thread(target=contender)
        t.start()
        time.sleep(0.05)
        gate.release()
        t.join(timeout=5)
        assert waited and waited[0] > 0.0
        assert gate.queue_depth_peak >= 1

    def test_configure_rejects_garbage(self):
        gate = AdmissionGate()
        with pytest.raises(ValueError):
            gate.configure(max_inflight=-1)
        with pytest.raises(ValueError):
            gate.configure(queue_timeout_s=float("nan"))

    @pytest.mark.parametrize("field, value", [
        ("max_inflight", True), ("max_queue", 2.7), ("max_queue", "2"),
        ("queue_timeout_s", True), ("retry_after_s", "1.5"),
    ])
    def test_library_limits_are_typed(self, field, value):
        """The library path types its limits as ``POST /frontend`` does:
        no boolean count, no truncated fraction, no numeric string."""
        for build in (
            lambda: AdmissionGate(**{field: value}),
            lambda: AdmissionGate().configure(**{field: value}),
            lambda: make_frontend(CutService(), **{field: value}),
        ):
            with pytest.raises(ValueError, match=repr(field)):
                build()
        gate = AdmissionGate(max_queue=2.0, queue_timeout_s=3)
        assert (gate.max_queue, gate.queue_timeout_s) == (2, 3.0)
        with pytest.raises(ValueError, match="max_window"):
            gate.configure(max_window=4)

    def test_configure_wakes_waiters(self):
        gate = AdmissionGate(max_inflight=0, max_queue=4, queue_timeout_s=5)
        results = []

        def contender():
            try:
                gate.acquire()
                results.append("admitted")
            except Overloaded:
                results.append("shed")

        t = threading.Thread(target=contender)
        t.start()
        time.sleep(0.05)
        gate.configure(max_inflight=1)
        t.join(timeout=5)
        assert results == ["admitted"]


# ----------------------------------------------------------------------
# HashRing
# ----------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_and_in_range(self):
        ring = HashRing(4)
        keys = [f"fp{i:04d}" for i in range(200)]
        first = [ring.route(k) for k in keys]
        assert first == [HashRing(4).route(k) for k in keys]
        assert set(first) == {0, 1, 2, 3}  # every shard gets traffic

    def test_resize_moves_few_keys(self):
        keys = [f"fp{i:04d}" for i in range(500)]
        small, big = HashRing(4), HashRing(5)
        moved = sum(1 for k in keys if small.route(k) != big.route(k))
        # consistent hashing: ~1/5 of keys move, not ~4/5 as with mod-N
        assert moved / len(keys) < 0.45

    def test_needs_a_shard(self):
        with pytest.raises(ValueError):
            HashRing(0)


# ----------------------------------------------------------------------
# HTTP-level admission + coalescing (inline backend)
# ----------------------------------------------------------------------
@pytest.fixture()
def server():
    service = CutService()
    with serving(make_server(service)) as srv:
        yield srv
    service.close()


def _register_demo(url: str, name: str = "g") -> None:
    request_json(
        url, "/graphs",
        {"name": name, "edges": [[0, 1, 2.0], [1, 2, 1.0], [0, 2, 1.0]]},
    )


def _block_op(service, op: str):
    """Replace ``service.<op>`` with a gated version; returns (started,
    release, restore)."""
    started = threading.Semaphore(0)
    release = threading.Event()
    original = getattr(service, op)

    def gated(*args, **kwargs):
        started.release()
        release.wait(timeout=30)
        return original(*args, **kwargs)

    setattr(service, op, gated)

    def restore():
        release.set()
        setattr(service, op, original)

    return started, release, restore


class TestAdmissionOverHTTP:
    def test_saturated_window_sheds_429_with_retry_after(self, server):
        _register_demo(server.url)
        frontend = server.frontend
        frontend.gate.configure(max_inflight=1, max_queue=0)
        started, release, restore = _block_op(server.service, "stcut")
        try:
            blocker = threading.Thread(
                target=request_json,
                args=(server.url, "/stcut", {"graph": "g", "s": 0, "t": 2}),
                daemon=True,
            )
            blocker.start()
            assert started.acquire(timeout=5)  # the slot is now held
            req = urllib.request.Request(
                server.url + "/mincut",
                data=b'{"graph": "g"}',
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(req, timeout=10)
            assert exc.value.code == 429
            assert int(exc.value.headers["Retry-After"]) >= 1
            body = exc.value.read().decode()
            assert "retry_after_s" in body and "trace_id" in body
            release.set()
            blocker.join(timeout=10)
        finally:
            restore()
        assert frontend.describe()["shed"] == 1
        # the shed is not an error in the request metrics
        shed = server.service.metrics.counter("requests.mincut.shed")
        errs = server.service.metrics.counter("requests.mincut.errors")
        assert shed.value == 1 and errs.value == 0

    def test_queued_request_succeeds_with_queue_wait_span(self, server):
        _register_demo(server.url)
        server.frontend.gate.configure(
            max_inflight=1, max_queue=4, queue_timeout_s=10
        )
        started, release, restore = _block_op(server.service, "stcut")
        try:
            blocker = threading.Thread(
                target=request_json,
                args=(server.url, "/stcut", {"graph": "g", "s": 0, "t": 2}),
                daemon=True,
            )
            blocker.start()
            assert started.acquire(timeout=5)
            waiter_result = {}

            def waiter():
                waiter_result["resp"] = request_json(
                    server.url, "/mincut", {"graph": "g"}
                )

            wt = threading.Thread(target=waiter, daemon=True)
            wt.start()
            time.sleep(0.15)  # the waiter is now queued
            release.set()
            wt.join(timeout=10)
            blocker.join(timeout=10)
        finally:
            restore()
        assert waiter_result["resp"]["weight"] == 2.0
        names = [s["name"] for s in server.service.tracer.snapshot()]
        assert "queue.wait" in names
        hist = server.service.metrics.histogram("frontend.queue_wait_s")
        assert hist.summary()["count"] >= 1

    def test_frontend_endpoint_roundtrip(self, server):
        desc = request_json(server.url, "/frontend")
        assert desc["mode"] == "inline" and desc["shards"] == 1
        updated = request_json(
            server.url, "/frontend", {"max_inflight": 3, "max_queue": 7}
        )
        assert updated["max_inflight"] == 3 and updated["max_queue"] == 7
        status, resp = request_status_json(
            server.url, "/frontend", {"bogus_knob": 1}
        )
        assert status == 400 and "bogus_knob" in resp["error"]
        # a rejected update applies none of its fields
        status, _ = request_status_json(
            server.url, "/frontend", {"max_inflight": 4, "max_queue": -1}
        )
        assert status == 400
        assert request_json(server.url, "/frontend") == updated
        # exempt from admission: reconfigure works even at capacity 0
        request_json(server.url, "/frontend", {"max_inflight": 0, "max_queue": 0})
        status, _ = request_status_json(server.url, "/stcut", {"graph": "x"})
        assert status == 429
        restored = request_json(
            server.url, "/frontend", {"max_inflight": 64, "max_queue": 256}
        )
        assert restored["max_inflight"] == 64

    def test_stats_carry_frontend_section(self, server):
        stats = request_json(server.url, "/stats")
        assert stats["frontend"]["mode"] == "inline"
        assert "queue_depth_peak" in stats["frontend"]


class TestCoalescing:
    def test_identical_concurrent_queries_coalesce(self, server):
        _register_demo(server.url)
        service = server.service
        frontend = server.frontend
        started, release, restore = _block_op(service, "stcut")
        results = []
        lock = threading.Lock()

        def query():
            resp = request_json(
                server.url, "/stcut", {"graph": "g", "s": 0, "t": 2}
            )
            with lock:
                results.append(resp)

        threads = [threading.Thread(target=query, daemon=True) for _ in range(4)]
        try:
            threads[0].start()
            assert started.acquire(timeout=5)  # the leader is computing
            for t in threads[1:]:
                t.start()
            # wait until the three followers are parked on the flight
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if frontend.gate.inflight >= 4:
                    break
                time.sleep(0.01)
            time.sleep(0.1)
            release.set()
            for t in threads:
                t.join(timeout=10)
        finally:
            restore()
        assert len(results) == 4
        # one computation fanned out: every response is byte-identical,
        # including elapsed_s and cached=False (no follower recomputed
        # or even hit the LRU)
        assert all(r == results[0] for r in results)
        assert results[0]["cached"] is False
        desc = frontend.describe()
        assert desc["coalesced_hits"] == 3
        assert desc["coalesce_leaders"] == 1
        # the service only ever saw one stcut computation
        assert service.metrics.counter("frontend.coalesced_hits").value == 3

    def test_different_params_do_not_coalesce(self, server):
        _register_demo(server.url)
        r1 = request_json(server.url, "/stcut", {"graph": "g", "s": 0, "t": 2})
        r2 = request_json(server.url, "/stcut", {"graph": "g", "s": 0, "t": 1})
        assert r1["weight"] != r2["weight"] or r1["t"] != r2["t"]
        assert server.frontend.describe()["coalesced_hits"] == 0

    def test_mutation_splits_flights_by_fingerprint(self, server):
        _register_demo(server.url)
        before = request_json(
            server.url, "/stcut", {"graph": "g", "s": 0, "t": 2}
        )
        request_json(server.url, "/mutate", {"graph": "g", "adds": [[0, 2, 5.0]]})
        after = request_json(
            server.url, "/stcut", {"graph": "g", "s": 0, "t": 2}
        )
        # same query text, different fingerprint -> different flight,
        # fresh computation, different answer
        assert after["fingerprint"] != before["fingerprint"]
        assert after["weight"] == before["weight"] + 5.0
        assert server.frontend.describe()["coalesced_hits"] == 0

    def test_coalescing_can_be_disabled(self):
        service = CutService()
        frontend = make_frontend(service, coalesce=False)
        try:
            with serving(make_server(frontend=frontend)) as srv:
                _register_demo(srv.url)
                r = request_json(srv.url, "/stcut", {"graph": "g", "s": 0, "t": 2})
                assert r["weight"] == 2.0
                assert frontend.describe()["coalesce"] is False
                assert frontend.describe()["coalesce_leaders"] == 0
        finally:
            service.close()


# ----------------------------------------------------------------------
# Slow-client isolation
# ----------------------------------------------------------------------
def test_stalled_connection_cannot_starve_the_window(server):
    """A client that sends headers and then stalls holds no admission
    slot: admission happens after the body is read, so even a window of
    one keeps serving everyone else."""
    _register_demo(server.url)
    server.frontend.gate.configure(max_inflight=1, max_queue=0)
    port = server.server_address[1]
    stalled = socket.create_connection(("127.0.0.1", port), timeout=5)
    try:
        stalled.sendall(
            (
                f"POST /stcut HTTP/1.1\r\n"
                f"Host: 127.0.0.1:{port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: 1000\r\n\r\n"
            ).encode()
            + b'{"graph": "g"'  # 13 of 1000 promised bytes, then silence
        )
        time.sleep(0.1)
        for _ in range(5):
            status, resp = request_status_json(
                server.url, "/stcut", {"graph": "g", "s": 0, "t": 2}
            )
            assert status == 200 and resp["weight"] == 2.0
        assert server.frontend.describe()["shed"] == 0
    finally:
        stalled.close()


# ----------------------------------------------------------------------
# Sharded differential harness
# ----------------------------------------------------------------------
def _strip_volatile(obj):
    """Drop wall-clock fields; everything else must match bit-for-bit."""
    if isinstance(obj, dict):
        return {
            k: _strip_volatile(v)
            for k, v in obj.items()
            if k not in ("elapsed_s", "uptime_s", "shard")
        }
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def _corpus_session(url: str) -> list:
    """One scripted request sequence over the whole connected corpus.

    Returns every (status, stripped-payload) pair, in order.  Driving
    the same session against the inline and the sharded server must
    produce identical transcripts: same cut weights, same sides, same
    fingerprints, same cached flags, same error messages.
    """
    transcript = []

    def do(path, payload=None):
        status, resp = request_status_json(url, path, payload, timeout=120)
        transcript.append((status, _strip_volatile(resp)))
        return resp

    for name, graph in connected_corpus():
        edges = [[u, v, w] for u, v, w in graph.edges()]
        do("/graphs", {"name": name, "edges": edges})
        do("/mincut", {"graph": name, "seed": 0, "trials": 2})
        do("/mincut", {"graph": name, "seed": 0, "trials": 2})  # warm
        vs = sorted(graph.vertices(), key=repr)
        do("/stcut", {"graph": name, "s": vs[0], "t": vs[-1]})
        do("/kernelize", {"graph": name, "level": "safe"})
        u, v = vs[0], vs[-1]
        do("/mutate", {"graph": name, "adds": [[u, v, 1.5]]})
        do("/mincut", {"graph": name, "seed": 0, "trials": 2})  # post-delta
        do("/stcut", {"graph": name, "s": vs[0], "t": vs[-1]})
    # registrations no op could address are refused, naming the field
    for field, bad in (("name", {"name": 5}), ("vertices", {"vertices": "xyz"})):
        status, resp = request_status_json(
            url, "/graphs", {"name": "v", "edges": [[0, 1, 2.0]], **bad},
            timeout=120,
        )
        transcript.append((status, _strip_volatile(resp)))
        assert status == 400 and f"'{field}'" in resp["error"], resp
    # cross-graph traffic: listing, a batch, and error paths.  The
    # listing is normalised by name: inline lists in LRU order, the
    # shard fan-out merges name-sorted — same rows, different order.
    status, listing = request_status_json(url, "/graphs", timeout=120)
    rows = sorted(
        (_strip_volatile(r) for r in listing["graphs"]),
        key=lambda r: r["name"],
    )
    transcript.append((status, rows))
    names = [n for n, _ in connected_corpus()]
    do("/batch", {
        "requests": [
            {"op": "mincut", "graph": names[0], "seed": 0, "trials": 2},
            {"op": "stcut", "graph": "missing", "s": 0, "t": 1},
            {"op": "bogus"},
        ]
    })
    do("/stcut", {"graph": "missing", "s": 0, "t": 1})  # 404
    do("/evict", {"graph": names[0]})
    do("/stcut", {"graph": names[0], "s": 0, "t": 1})  # 404 after evict
    return transcript


def _strip_trace_ids(transcript):
    def strip(obj):
        if isinstance(obj, dict):
            return {
                k: strip(v) for k, v in obj.items() if k != "trace_id"
            }
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        if isinstance(obj, tuple):
            return tuple(strip(v) for v in obj)
        return obj

    return [strip(row) for row in transcript]


@pytest.mark.slow
def test_sharded_service_is_bit_identical_to_inline():
    inline_service = CutService()
    inline_srv = make_server(inline_service)
    threading.Thread(target=inline_srv.serve_forever, daemon=True).start()

    sharded_fe = make_frontend(shards=2, service_kwargs={})
    sharded_srv = make_server(frontend=sharded_fe)
    threading.Thread(target=sharded_srv.serve_forever, daemon=True).start()

    try:
        inline_transcript = _corpus_session(inline_srv.url)
        sharded_transcript = _corpus_session(sharded_srv.url)
    finally:
        inline_srv.shutdown()
        inline_service.close()
        sharded_srv.shutdown()
        sharded_fe.close()

    assert len(inline_transcript) == len(sharded_transcript)
    mismatches = [
        i
        for i, (a, b) in enumerate(
            zip(
                _strip_trace_ids(inline_transcript),
                _strip_trace_ids(sharded_transcript),
            )
        )
        if a != b
    ]
    assert mismatches == [], (
        f"transcripts diverge at rows {mismatches[:5]}: "
        f"{_strip_trace_ids(inline_transcript)[mismatches[0]]!r} vs "
        f"{_strip_trace_ids(sharded_transcript)[mismatches[0]]!r}"
    )


@pytest.mark.slow
def test_sharded_server_spreads_graphs_and_traces_dispatch():
    fe = make_frontend(shards=3, service_kwargs={})
    srv = make_server(frontend=fe)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        for name, graph in connected_corpus():
            edges = [[u, v, w] for u, v, w in graph.edges()]
            request_json(srv.url, "/graphs", {"name": name, "edges": edges})
        rows = request_json(srv.url, "/graphs")["graphs"]
        shards_used = {r["shard"] for r in rows}
        assert len(shards_used) >= 2  # consistent hashing spreads the corpus
        # fan-out observability: per-shard stats + frontend-side spans
        stats = request_json(srv.url, "/stats")
        assert set(stats["shards"]) == {"0", "1", "2"}
        assert stats["frontend"]["mode"] == "sharded"
        names = [s["name"] for s in fe.tracer.snapshot()]
        assert "shard.dispatch" in names
        metrics = request_json(srv.url, "/metrics")
        assert "frontend.admitted" in metrics["counters"]
        # routing is fingerprint-sticky: mutate keeps the shard, updates
        # the fingerprint used for coalescing keys
        name0 = rows[0]["name"]
        before = fe.backend.route_of(name0)
        request_json(srv.url, "/mutate", {"graph": name0, "adds": [["zz", "zz2", 1.0]]})
        after = fe.backend.route_of(name0)
        assert after.shard == before.shard
        assert after.fingerprint != before.fingerprint
    finally:
        srv.shutdown()
        fe.close()


# ----------------------------------------------------------------------
# Vertex ids are integers or strings
# ----------------------------------------------------------------------
TRIANGLE = [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]


@pytest.mark.parametrize("bad", [True, None, 1.5, [1]], ids=repr)
def test_frontend_takes_only_int_or_string_vertex_ids(bad):
    """``true`` aliased vertex 1, while ``null`` and ``1.5`` registered
    vertices no op can address; each is now a 400 naming the row."""
    frontend = make_frontend(CutService())
    try:
        handle = frontend.handle
        status, resp, _ = handle("graphs", {"name": "g", "edges": TRIANGLE})
        assert status == 200
        store = frontend.backend.service.store
        fingerprint = store.get("g").fingerprint

        status, resp, _ = handle("mutate", {"graph": "g", "adds": [[bad, 7, 1.0]]})
        assert status == 400 and f"[{bad!r}, 7, 1.0]" in resp["error"]
        assert store.get("g").fingerprint == fingerprint

        for body in (
            {"name": "h", "edges": [[bad, 1], [1, 2]]},
            {"name": "h", "edges": [[1, 2]], "vertices": [bad, 1]},
        ):
            status, resp, _ = handle("graphs", body)
            assert status == 400 and repr(bad) in resp["error"], resp
        assert store.names() == ["g"]
        status, resp, _ = handle("stcut", {"graph": "g", "s": bad, "t": 2})
        assert status == 400 and "'s'" in resp["error"]
    finally:
        frontend.close()
