"""Edge cases of the serving layer's caches.

Three seams the main service tests don't stress:

* LRU behaviour at the degenerate ``maxsize=1`` — both the result
  :class:`~repro.service.cache.LRUCache` and a ``store_capacity=1``
  :class:`~repro.service.service.CutService`, where every new graph
  must evict the previous one *and* release its oracle;
* :class:`~repro.service.oracle.CutOracle` invalidation when a graph is
  re-uploaded under the same name with a different ``fingerprint()`` —
  stale trees answering for a replaced graph would be silent data
  corruption;
* ``/batch`` requests mixing valid and invalid queries — errors must
  come back inline, one response per request, without killing the batch.
"""

from __future__ import annotations

import threading

import pytest

from repro.graph import Graph
from repro.service import CutService, LRUCache, make_server, request_json
from repro.workloads import planted_cut


def _path_graph(n: int, weight: float = 1.0) -> Graph:
    g = Graph()
    for v in range(n - 1):
        g.add_edge(v, v + 1, weight)
    return g


# ----------------------------------------------------------------------
# LRU eviction under maxsize=1
# ----------------------------------------------------------------------
class TestLRUCapacityOne:
    def test_second_put_evicts_first(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 1

    def test_overwrite_same_key_is_not_an_eviction(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert cache.stats()["evictions"] == 0

    def test_zero_capacity_disables_caching(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_service_result_cache_capacity_one(self):
        with CutService(result_cache_capacity=1) as svc:
            svc.register("g", planted_cut(24, seed=1).graph)
            first = svc.mincut("g", trials=1, seed=0)
            assert first["cached"] is False
            assert svc.mincut("g", trials=1, seed=0)["cached"] is True
            # A different query takes the single slot...
            svc.mincut("g", trials=1, seed=5)
            # ...so the original query is cold again.
            again = svc.mincut("g", trials=1, seed=0)
            assert again["cached"] is False
            assert again["weight"] == first["weight"]

    def test_store_capacity_one_evicts_graph_and_oracle(self):
        with CutService(store_capacity=1) as svc:
            svc.register("a", _path_graph(6))
            svc.stcut("a", 0, 5)  # builds a's oracle
            assert len(svc.stats()["oracles"]) == 1
            svc.register("b", _path_graph(7, weight=2.0))
            stats = svc.stats()
            assert [g["name"] for g in svc.graphs()] == ["b"]
            assert stats["store"]["evictions"] == 1
            # a's oracle went with it; b hasn't built one yet.
            assert len(stats["oracles"]) == 0
            with pytest.raises(KeyError):
                svc.stcut("a", 0, 5)


# ----------------------------------------------------------------------
# Oracle invalidation on same-name re-upload
# ----------------------------------------------------------------------
class TestOracleInvalidationOnReupload:
    def test_reupload_with_new_fingerprint_rebuilds_oracle(self):
        with CutService() as svc:
            first = svc.register("g", _path_graph(8, weight=1.0))
            cold = svc.stcut("g", 0, 7)
            assert cold["weight"] == pytest.approx(1.0)
            assert cold["cached"] is False
            assert svc.stcut("g", 0, 7)["cached"] is True  # tree reused

            second = svc.register("g", _path_graph(8, weight=3.0))
            assert second["fingerprint"] != first["fingerprint"]
            # The stale oracle must be gone...
            assert first["fingerprint"] not in svc.stats()["oracles"]
            # ...and the fresh answer reflects the replacement graph.
            fresh = svc.stcut("g", 0, 7)
            assert fresh["cached"] is False
            assert fresh["weight"] == pytest.approx(3.0)
            assert fresh["fingerprint"] == second["fingerprint"]

    def test_reupload_identical_content_keeps_oracle(self):
        with CutService() as svc:
            first = svc.register("g", _path_graph(8))
            svc.stcut("g", 0, 7)
            second = svc.register("g", _path_graph(8))
            assert second["fingerprint"] == first["fingerprint"]
            # Content-equal re-upload: the already-built tree still serves.
            assert svc.stcut("g", 0, 7)["cached"] is True

    def test_mincut_result_cache_keyed_by_content_not_name(self):
        with CutService() as svc:
            svc.register("g", planted_cut(24, seed=2).graph)
            before = svc.mincut("g", trials=1, seed=0)
            svc.register("g", planted_cut(24, seed=3).graph)  # new content
            after = svc.mincut("g", trials=1, seed=0)
            # Same name, different fingerprint: must be a fresh compute.
            assert after["cached"] is False
            assert after["fingerprint"] != before["fingerprint"]


# ----------------------------------------------------------------------
# /batch mixing valid and invalid requests
# ----------------------------------------------------------------------
class TestBatchMixedValidity:
    @pytest.fixture()
    def server(self):
        with CutService() as svc:
            svc.register("g", planted_cut(24, seed=4).graph)
            server = make_server(svc)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                yield server
            finally:
                server.shutdown()
                server.server_close()

    def test_errors_inline_one_response_per_request(self, server):
        requests = [
            {"op": "mincut", "graph": "g", "trials": 1, "seed": 0},     # ok
            {"op": "mincut", "graph": "missing"},                        # 404-ish
            {"op": "nope", "x": 1},                                      # unknown op
            {"op": "stcut", "graph": "g", "s": 0, "t": 1},               # ok
            {"op": "kcut", "graph": "g", "k": "not-an-int"},             # bad type
            "not-even-an-object",                                        # malformed
        ]
        resp = request_json(server.url, "/batch", {"requests": requests})
        out = resp["responses"]
        assert len(out) == len(requests)
        assert "weight" in out[0] and "error" not in out[0]
        assert "error" in out[1] and "missing" in out[1]["error"]
        assert "error" in out[2]
        assert "weight" in out[3]
        assert "error" in out[4]
        assert "error" in out[5]

    def test_batch_valid_results_match_direct_queries(self, server):
        direct = request_json(
            server.url, "/mincut", {"graph": "g", "trials": 1, "seed": 0}
        )
        batched = request_json(
            server.url,
            "/batch",
            {
                "requests": [
                    {"op": "bogus"},
                    {"op": "mincut", "graph": "g", "trials": 1, "seed": 0},
                ]
            },
        )["responses"][1]
        assert batched["weight"] == direct["weight"]
        assert batched["side"] == direct["side"]
