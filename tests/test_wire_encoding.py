"""Every reply body is ``json.dumps(payload).encode()``, byte for byte.

A result-cached payload is encoded once, when it enters the result
cache, and each reply built from it (the miss that computed it and
every later hit) splices the caller's graph name and the ``cached``
flag around the stored bytes (:mod:`repro.service.reply`).  These tests
pin that the splice is exact:

* in-process, for every result-cached op over the cut corpus, on miss
  and hit, for graph names that need escaping, and for a mincut result
  re-keyed by ``/mutate`` (whose reply must carry the new fingerprint);
* over HTTP, inline and with two shards, on every raw reply body: a
  miss, a hit, a coalesced follower, a ``/batch`` mixing cached items
  with errors, and every error status — each decoded body also equals
  the library payload;
* and that the ``results.bytes`` gauge is the exact byte count of the
  stored encodings.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.graph import Graph
from repro.service import CutService, make_frontend, make_server
from repro.service.http import request_json
from repro.service.reply import CachedReply, encode_reply
from repro.workloads import planted_cut
from tests.cutcorpus import connected_corpus, disconnected_corpus

#: every result-cached op, with cheap params
CACHED_OPS = (
    ("mincut", {"trials": 1, "seed": 3}),
    ("kcut", {"k": 2, "trials": 1}),
    ("gomoryhu", {}),
    ("gomoryhu", {"sides": True}),
    ("sparsestcut", {"seed": 1, "trials": 1}),
)

ODD_NAMES = ('a"b', "é", "\n", "back\\slash", "雪")


def _identical(reply) -> None:
    assert isinstance(reply, CachedReply), type(reply)
    assert reply.encode() == json.dumps(reply).encode()


def _call(svc, op, name, params):
    if op == "kcut":
        params = dict(params)
        return svc.kcut(name, params.pop("k"), **params)
    return getattr(svc, op)(name, **params)


# ----------------------------------------------------------------------
# (a) the splice, in-process
# ----------------------------------------------------------------------
def test_splice_is_json_dumps_for_every_cached_op_over_the_corpus():
    with CutService() as svc:
        graphs = connected_corpus() + disconnected_corpus()
        checked = 0
        for name, graph in graphs:
            svc.register(name, graph)
            for op, params in CACHED_OPS:
                if op == "kcut" and graph.num_vertices < 2:
                    continue
                try:
                    miss = _call(svc, op, name, params)
                except ValueError:
                    continue  # the op refuses this graph (e.g. n < 2)
                hit = _call(svc, op, name, params)
                assert miss["cached"] is False and hit["cached"] is True
                _identical(miss)
                _identical(hit)
                assert {**hit, "cached": False} == miss
                checked += 1
        assert checked >= 4 * len(connected_corpus())


@pytest.mark.parametrize("name", ODD_NAMES)
def test_splice_escapes_graph_names(name):
    graph = planted_cut(16, seed=1).graph
    with CutService() as svc:
        svc.register("plain", graph)
        svc.register(name, graph)
        for op, params in CACHED_OPS:
            first = _call(svc, op, "plain", params)
            # content-addressed: the hit was computed under "plain"
            hit = _call(svc, op, name, params)
            assert hit["graph"] == name and hit["cached"] is True
            _identical(hit)
            assert {**hit, "graph": "plain", "cached": False} == first


def test_rekeyed_mincut_reply_carries_the_new_fingerprint():
    with CutService() as svc:
        svc.register(
            "g", Graph(edges=[(0, 1, 1.0), (2, 3, 1.0), (3, 4, 2.0)])
        )
        first = svc.mincut("g", preprocess="safe")
        resp = svc.mutate("g", removes=[[3, 4]])
        assert resp["deltas"][0]["invalidation"]["results_rekeyed"] == 1
        rekeyed = svc.mincut("g", preprocess="safe")
        assert rekeyed["cached"] is True
        assert rekeyed["fingerprint"] == resp["fingerprint"]
        assert rekeyed["fingerprint"] != first["fingerprint"]
        _identical(rekeyed)


def test_library_replies_copy_and_pickle_as_plain_dicts():
    import copy
    import pickle

    with CutService() as svc:
        svc.register("g", planted_cut(16, seed=1).graph)
        reply = svc.gomoryhu("g")
        for clone in (copy.copy(reply), copy.deepcopy(reply),
                      pickle.loads(pickle.dumps(reply)), dict(reply)):
            assert type(clone) is dict and clone == reply


def test_dispatch_sends_a_cached_reply_as_its_stored_bytes():
    """What the shard pipe, coalesced followers and the wire carry."""
    from repro.service.frontend import safe_dispatch

    with CutService() as svc:
        svc.register("g", planted_cut(16, seed=1).graph)
        replies = [safe_dispatch(svc, "gomoryhu", {"graph": "g"})
                   for _ in range(2)]
        for status, payload in replies:
            assert status == 200 and isinstance(payload, bytes)
        (_, miss), (_, hit) = replies
        assert json.loads(miss)["cached"] is False
        # a library hit reads the same cache entry
        assert hit == json.dumps(svc.gomoryhu("g")).encode()
        status, payload = safe_dispatch(svc, "stcut", {"graph": "g", "s": 0,
                                                       "t": 1})
        assert status == 200 and type(payload) is dict


def test_encode_reply_passes_bytes_through():
    assert encode_reply(b'{"x": 1}') == b'{"x": 1}'
    payload = {"graph": "é", "w": [1.5, None, float("inf")]}
    assert encode_reply(payload) == json.dumps(payload).encode()


# ----------------------------------------------------------------------
# results.bytes: the exact byte count of the stored encodings
# ----------------------------------------------------------------------
def _stored_length(body: bytes) -> int:
    payload = json.loads(body)
    del payload["graph"], payload["cached"]
    return len(json.dumps(payload).encode())


def _raw_post(url: str, path: str, body) -> tuple[int, bytes]:
    req = urllib.request.Request(
        url + path, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    return _raw(req)


def _raw_get(url: str, path: str) -> tuple[int, bytes]:
    return _raw(urllib.request.Request(url + path))


def _raw(req) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


@contextlib.contextmanager
def _inline_server(**service_kwargs):
    service = CutService(**service_kwargs)
    srv = make_server(service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        service.close()


def _gauge(url: str) -> int:
    metrics = request_json(url, "/metrics")
    stats = request_json(url, "/stats")
    assert metrics["gauges"]["results.bytes"] == stats["results"]["bytes"]
    return stats["results"]["bytes"]


def test_results_bytes_gauge_tracks_put_drop_and_evict():
    with _inline_server(result_cache_capacity=2) as srv:
        _check_gauge(srv.url)


def _check_gauge(url: str) -> None:
    edges = [[u, v, w] for u, v, w in planted_cut(64, seed=9).graph.edges()]
    _raw_post(url, "/graphs", {"name": "g", "edges": edges})
    assert _gauge(url) == 0

    status, body = _raw_post(url, "/gomoryhu", {"graph": "g"})
    assert status == 200
    assert _gauge(url) == _stored_length(body) > 0
    # a hit stores nothing new
    _raw_post(url, "/gomoryhu", {"graph": "g"})
    assert _gauge(url) == _stored_length(body)

    # a /mutate that drops the result gives its bytes back
    status, _ = _raw_post(url, "/mutate", {"graph": "g", "adds": [[0, 1, 1.0]]})
    assert status == 200
    assert _gauge(url) == 0

    # LRU eviction (capacity 2) gives the evicted entry's bytes back
    _, first = _raw_post(url, "/gomoryhu", {"graph": "g"})
    _, second = _raw_post(url, "/mincut", {"graph": "g", "trials": 1})
    both = _stored_length(first) + _stored_length(second)
    assert _gauge(url) == both
    _, third = _raw_post(url, "/mincut", {"graph": "g", "trials": 1, "seed": 1})
    assert request_json(url, "/stats")["results"]["evictions"] == 1
    assert _gauge(url) == _stored_length(second) + _stored_length(third)


# ----------------------------------------------------------------------
# (b) every raw reply body over HTTP, inline and sharded
# ----------------------------------------------------------------------
def _volatile_free(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "elapsed_s"}


class _Session:
    """One server, every body it returns checked for byte identity."""

    def __init__(self, url: str, frontend):
        self.url = url
        self.frontend = frontend
        self.bodies: list[tuple[str, int, bytes]] = []

    def post(self, path, body):
        status, raw = _raw_post(self.url, path, body)
        self.bodies.append((path, status, raw))
        return status, json.loads(raw)

    def get(self, path):
        status, raw = _raw_get(self.url, path)
        self.bodies.append((path, status, raw))
        return status, json.loads(raw)

    def check(self):
        for path, status, raw in self.bodies:
            assert raw == json.dumps(json.loads(raw)).encode(), (path, status)


def _coalesced_pair(frontend, call) -> None:
    """Run ``call(0)`` and ``call(1)`` on two threads so that the second
    joins the first's flight: the leader parks in its dispatch until
    the follower has been admitted."""
    backend = frontend.backend
    original = backend.dispatch
    started, release = threading.Semaphore(0), threading.Event()

    def gated(*args, **kwargs):
        started.release()
        release.wait(timeout=30)
        return original(*args, **kwargs)

    admitted_before = frontend.describe()["admitted"]
    hits_before = frontend.describe()["coalesced_hits"]
    threads = [threading.Thread(target=call, args=(i,)) for i in (0, 1)]
    backend.dispatch = gated
    try:
        threads[0].start()
        assert started.acquire(timeout=10)
        threads[1].start()
        deadline = time.monotonic() + 10
        while (frontend.describe()["admitted"] - admitted_before < 2
               and time.monotonic() < deadline):
            time.sleep(0.005)
        time.sleep(0.25)  # the follower is joining the leader's flight
    finally:
        release.set()
        backend.dispatch = original
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert frontend.describe()["coalesced_hits"] == hits_before + 1


def _drive(session: _Session, library: CutService, inline_service):
    graph = planted_cut(32, seed=4).graph
    edges = [[u, v, w] for u, v, w in graph.edges()]
    library.register("g", graph)
    status, _ = session.post("/graphs", {"name": "g", "edges": edges})
    assert status == 200

    for op, params in CACHED_OPS:
        body = {"graph": "g", **params}
        status, miss = session.post("/" + op, body)
        assert status == 200 and miss["cached"] is False
        expected = _call(library, op, "g", params)
        assert _volatile_free(miss) == _volatile_free(expected)
        status, hit = session.post("/" + op, body)
        assert status == 200 and hit["cached"] is True
        assert hit == {**miss, "cached": True}
        if inline_service is not None:  # the same cache entry, in-process
            assert hit == _call(inline_service, op, "g", params)

    # a coalesced follower shares the leader's bytes
    replies: list = [None, None]
    body = {"graph": "g", "seed": 9, "trials": 1}

    def client(i):
        replies[i] = _raw_post(session.url, "/sparsestcut", body)

    _coalesced_pair(session.frontend, client)
    (s0, r0), (s1, r1) = replies
    assert s0 == s1 == 200 and r0 == r1
    session.bodies += [("/sparsestcut", s0, r0), ("/sparsestcut", s1, r1)]
    expected = library.sparsestcut("g", seed=9, trials=1)
    assert _volatile_free(json.loads(r0)) == _volatile_free(expected)

    # /batch: cached items beside 404 and 400 items
    status, batch = session.post("/batch", {"requests": [
        {"op": "gomoryhu", "graph": "g"},
        {"op": "stcut", "graph": "missing", "s": 0, "t": 1},
        {"op": "mincut", "graph": "g", "trials": 1, "seed": 3},
        {"op": "mincut", "graph": "g", "trials": "x"},
        {"op": "bogus"},
    ]})
    assert status == 200
    gh, missing, mincut, bad, bogus = batch["responses"]
    assert gh == {**library.gomoryhu("g"), "elapsed_s": gh["elapsed_s"]}
    assert mincut["cached"] is True and mincut["graph"] == "g"
    for err in (missing, bad, bogus):
        assert "error" in err and "trace_id" in err

    # every error status
    assert session.post("/mincut", {"graph": "g", "trials": "x"})[0] == 400
    assert session.post("/mincut", {"graph": "missing"})[0] == 404
    assert session.post("/mutate", {
        "graph": "g", "adds": [[0, 1, 1.0]], "expected_fingerprint": "stale",
    })[0] == 409
    assert session.get("/nowhere")[0] == 404
    assert session.get("/trace?limit=abc")[0] == 400
    session.post("/frontend", {"max_inflight": 0, "queue_timeout_s": 0.0})
    try:
        status, shed = session.post("/gomoryhu", {"graph": "g"})
        assert status == 429 and "trace_id" in shed
    finally:
        session.post("/frontend", {"max_inflight": 64, "queue_timeout_s": 2.0})
    for path, status, raw in session.bodies:
        if status >= 400:
            assert "trace_id" in json.loads(raw), (path, status)


@pytest.mark.parametrize("graph, status", [("g", 200), ("one", 400)])
def test_followers_share_a_reply_and_copy_an_error(graph, status):
    """The HTTP layer stamps each caller's trace_id into an error in
    place, so an error must not be one object shared by the flight."""
    frontend = make_frontend(CutService())
    try:
        frontend.backend.service.register("g", planted_cut(16, seed=1).graph)
        frontend.backend.service.register("one", Graph(vertices=[0]))
        out: list = [None, None]

        def call(i):
            out[i] = frontend.handle("gomoryhu", {"graph": graph})

        _coalesced_pair(frontend, call)
        (s0, p0, _), (s1, p1, _) = out
        assert s0 == s1 == status and p0 == p1
        if status == 200:
            assert isinstance(p0, bytes) and p0 is p1
        else:
            assert "need n >= 2" in p0["error"] and p0 is not p1
    finally:
        frontend.close()


def _five_hundred(session: _Session, break_it, restore):
    break_it()
    try:
        # a miss: the solve outlasts a zero shard timeout
        status, err = session.post("/sparsestcut", {"graph": "g", "seed": 77})
    finally:
        restore()
    assert status == 500 and "trace_id" in err


def test_every_inline_reply_body_is_json_dumps():
    def boom(*args, **kwargs):
        raise RuntimeError("wired to fail")

    with _inline_server() as srv, CutService() as library:
        service = srv.service
        session = _Session(srv.url, srv.frontend)
        _drive(session, library, service)
        original = service.sparsestcut
        _five_hundred(
            session,
            lambda: setattr(service, "sparsestcut", boom),
            lambda: setattr(service, "sparsestcut", original),
        )
        session.check()


@pytest.mark.slow
def test_every_sharded_reply_body_is_json_dumps():
    frontend = make_frontend(shards=2, service_kwargs={})
    srv = make_server(frontend=frontend)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    session = _Session(srv.url, frontend)
    pool = frontend.backend
    try:
        with CutService() as library:
            _drive(session, library, None)
        # a shard that times out answers 500; its late reply is dropped
        _five_hundred(
            session,
            lambda: setattr(pool, "request_timeout_s", 0.0),
            lambda: setattr(pool, "request_timeout_s", 300.0),
        )
        status, hit = session.post("/gomoryhu", {"graph": "g"})
        assert status == 200 and hit["cached"] is True
        session.check()
    finally:
        srv.shutdown()
        srv.server_close()
        frontend.close()
