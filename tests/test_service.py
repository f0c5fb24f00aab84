"""Tests for the serving layer (:mod:`repro.service`).

Covers the four acceptance surfaces: GraphStore registration/eviction,
parallel-vs-serial trial parity, Gomory–Hu oracle vs direct Dinic
flows, and an end-to-end HTTP round trip on an ephemeral port.
"""

import itertools
import threading
from functools import partial

import pytest

from repro import CutService
from repro.core import ampc_min_cut_boosted, boost_kcut, boost_min_cut
from repro.core.boost import trial_seeds
from repro.flow import DinicSolver
from repro.graph import Graph
from repro.service import (
    CutOracle,
    GraphStore,
    LRUCache,
    TrialExecutor,
    make_server,
    request_json,
)
from repro.service.executor import kcut_trial, mincut_trial
from repro.workloads import erdos_renyi, planted_cut


def two_triangles() -> Graph:
    """Two heavy triangles joined by one light bridge (min cut 1)."""
    return Graph(
        edges=[
            (0, 1, 2.0), (1, 2, 2.0), (2, 0, 2.0),
            (3, 4, 2.0), (4, 5, 2.0), (5, 3, 2.0),
            (2, 3, 1.0),
        ]
    )


# ======================================================================
# LRUCache
# ======================================================================
class TestLRUCache:
    def test_hit_miss_counters(self):
        c = LRUCache(capacity=2)
        assert c.get("a") is None
        c.put("a", 1)
        assert c.get("a") == 1
        assert c.stats()["hits"] == 1
        assert c.stats()["misses"] == 1

    def test_evicts_least_recently_used(self):
        c = LRUCache(capacity=2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")          # refresh a; b is now LRU
        c.put("c", 3)
        assert "b" not in c
        assert c.get("a") == 1
        assert c.stats()["evictions"] == 1

    def test_zero_capacity_disables(self):
        c = LRUCache(capacity=0)
        c.put("a", 1)
        assert c.get("a") is None
        assert len(c) == 0

    def test_bytes_gauge_follows_every_entry_change(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        c = LRUCache(capacity=2, metrics=registry.scope("results"), weigh=len)

        def nbytes():
            gauge = registry.snapshot()["gauges"]["results.bytes"]
            assert gauge == c.stats()["bytes"]
            return gauge

        assert nbytes() == 0
        c.put("a", b"xxx")
        c.put("b", b"yyyyy")
        assert nbytes() == 8
        c.put("a", b"z")            # overwrite: the old weight leaves
        assert nbytes() == 6
        c.put("c", b"wwww")         # evicts "b", the LRU entry
        assert "b" not in c and nbytes() == 5
        assert c.pop("a") == b"z" and nbytes() == 4
        assert c.pop("missing") is None and nbytes() == 4
        c.clear()
        assert nbytes() == 0
        assert LRUCache(capacity=1).stats()["bytes"] == 0  # unweighed


# ======================================================================
# GraphStore
# ======================================================================
class TestGraphStore:
    def test_register_fingerprints_and_counts(self):
        store = GraphStore()
        g = two_triangles()
        entry = store.register("g", g)
        assert entry.fingerprint == g.fingerprint()
        assert entry.num_vertices == 6 and entry.num_edges == 7
        assert store.get("g") is entry
        assert store.stats.hits == 1

    def test_missing_name_raises_and_counts(self):
        store = GraphStore()
        with pytest.raises(KeyError):
            store.get("nope")
        assert store.stats.misses == 1

    def test_capacity_evicts_least_recently_queried(self):
        store = GraphStore(capacity=2)
        store.register("a", two_triangles())
        store.register("b", Graph(edges=[(0, 1, 1.0)]))
        store.get("a")  # b becomes LRU
        store.register("c", Graph(edges=[(1, 2, 1.0)]))
        assert store.names() == ["a", "c"]
        assert "b" not in store
        assert store.describe()["resident"] == 2
        assert store.describe()["evictions"] == 1

    def test_reregister_replaces_without_eviction(self):
        store = GraphStore(capacity=1)
        store.register("g", two_triangles())
        entry = store.register("g", Graph(edges=[(0, 1, 1.0)]))
        assert len(store) == 1
        assert store.get("g") is entry

    def test_explicit_evict(self):
        store = GraphStore()
        store.register("g", two_triangles())
        store.evict("g")
        assert "g" not in store
        with pytest.raises(KeyError):
            store.evict("g")

    def test_register_file_roundtrip(self, tmp_path):
        from repro.graph import save_graph

        g = two_triangles()
        path = tmp_path / "g.txt"
        save_graph(g, path)
        store = GraphStore()
        entry = store.register_file("g", path)
        assert entry.fingerprint == g.fingerprint()
        assert entry.source == str(path)


# ======================================================================
# TrialExecutor — parallel vs serial parity
# ======================================================================
#: a server-shaped child: its main thread blocks in ``sys.stdin.read()``
#: while another thread boosts two trials on a 2-worker pool
POOL_UNDER_STDIN = """
import sys
import threading
from functools import partial


def main():
    from repro.core import boost_min_cut
    from repro.service.executor import TrialExecutor, mincut_trial
    from repro.workloads import planted_cut

    graph = planted_cut(24, seed=3).graph
    executor = TrialExecutor(workers=2)

    def solve():
        result = boost_min_cut(graph, trials=2, seed=5,
                               run=partial(executor.run, mincut_trial))
        print(result.weight, flush=True)

    threading.Thread(target=solve, daemon=True).start()
    sys.stdin.read()


if __name__ == "__main__":
    main()
"""


class TestTrialExecutor:
    @staticmethod
    def mincut(ex, g, **kw):
        """Boosted min cut with ``ex`` as the trial runner."""
        return boost_min_cut(g, run=partial(ex.run, mincut_trial), **kw)

    @staticmethod
    def kcut(ex, g, k, **kw):
        return boost_kcut(g, k, run=partial(ex.run, kcut_trial), **kw)

    def test_seed_schedule_matches_booster(self):
        assert trial_seeds(3, 4) == [3, 3 + 7919, 3 + 2 * 7919, 3 + 3 * 7919]

    def test_serial_matches_ampc_min_cut_boosted(self):
        g = planted_cut(40, seed=2).graph
        ours = self.mincut(TrialExecutor(workers=1), g, trials=3, seed=2)
        ref = ampc_min_cut_boosted(g, trials=3, seed=2)
        assert ours.weight == ref.weight
        assert ours.cut.side == ref.cut.side
        assert ours.ledger.rounds == ref.ledger.rounds
        assert ours.ledger.total_peak == ref.ledger.total_peak

    def test_parallel_bit_identical_to_serial(self):
        g = planted_cut(40, seed=7).graph
        serial = self.mincut(TrialExecutor(workers=1), g, trials=4, seed=11)
        with TrialExecutor(workers=3) as ex:
            par = self.mincut(ex, g, trials=4, seed=11)
        assert par.weight == serial.weight
        assert par.cut.side == serial.cut.side
        assert par.ledger.rounds == serial.ledger.rounds
        assert par.ledger.local_peak == serial.ledger.local_peak
        assert par.ledger.total_peak == serial.ledger.total_peak

    def test_parallel_kcut_matches_serial(self):
        g = planted_cut(24, seed=5).graph
        serial = self.kcut(TrialExecutor(workers=1), g, 3, trials=3, seed=1)
        with TrialExecutor(workers=2) as ex:
            par = self.kcut(ex, g, 3, trials=3, seed=1)
        assert par.weight == serial.weight
        assert par.kcut.parts == serial.kcut.parts
        assert par.ledger.rounds == serial.ledger.rounds

    def test_trial_counters(self):
        g = two_triangles()
        ex = TrialExecutor(workers=1)
        self.mincut(ex, g, trials=2, seed=0)
        assert ex.stats()["trials_run"] == 2
        assert ex.stats()["batches"] == 1

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            TrialExecutor(workers=0)

    def test_pool_answers_while_the_main_thread_reads_stdin(self, tmp_path):
        # A fork-started pool hangs here: the forked worker closes stdin
        # at start, and the main thread holds stdin's buffer lock.
        import os
        import pathlib
        import signal
        import subprocess
        import sys

        import repro

        script = tmp_path / "pool_under_stdin.py"
        script.write_text(POOL_UNDER_STDIN)
        src_dir = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, str(script)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True, start_new_session=True,
        )
        lines = []
        reader = threading.Thread(
            target=lambda: lines.append(proc.stdout.readline()), daemon=True
        )
        reader.start()
        try:
            reader.join(timeout=60)
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert lines and lines[0].strip() == "3.0", "pooled trials hung"

    def test_single_trial_skips_serialization(self):
        # trials=1 runs in-process even on a multi-worker executor; the
        # graph must pass through unpickled and spawn no pool.
        g = two_triangles()
        ex = TrialExecutor(workers=4)
        self.kcut(ex, g, 2, trials=1, seed=0)
        assert ex.stats()["pool_live"] is False


# ======================================================================
# CutOracle — Gomory–Hu answers vs direct Dinic flows
# ======================================================================
class TestCutOracle:
    def test_matches_direct_dinic_all_pairs(self):
        g = erdos_renyi(10, 0.5, weighted=True, seed=4)
        oracle = CutOracle(g)
        solver = DinicSolver(g)
        for s, t in itertools.combinations(g.vertices(), 2):
            assert oracle.st_min_cut(s, t) == pytest.approx(
                solver.max_flow(s, t).value
            )

    def test_lazy_build_and_counters(self):
        oracle = CutOracle(two_triangles())
        assert not oracle.built
        assert oracle.st_min_cut(0, 4) == 1.0
        assert oracle.built
        assert oracle.builds == 1
        # same pair again: another tree walk, no extra build
        assert oracle.st_min_cut(4, 0) == 1.0
        # fresh pair: tree walk, still one build
        assert oracle.st_min_cut(1, 5) == 1.0
        assert oracle.builds == 1
        assert oracle.tree_queries == 3

    def test_rejects_s_equals_t(self):
        oracle = CutOracle(two_triangles())
        with pytest.raises(ValueError):
            oracle.st_min_cut(2, 2)


# ======================================================================
# CutService facade
# ======================================================================
class TestCutService:
    def test_mincut_result_cache(self):
        with CutService() as svc:
            svc.register("g", two_triangles())
            first = svc.mincut("g", trials=2, seed=1)
            again = svc.mincut("g", trials=2, seed=1)
            other = svc.mincut("g", trials=2, seed=2)
        assert first["cached"] is False
        assert again["cached"] is True
        assert other["cached"] is False
        assert again["weight"] == first["weight"] == 1.0

    def test_result_cache_is_content_addressed(self):
        with CutService() as svc:
            svc.register("a", two_triangles())
            svc.mincut("a", trials=2, seed=1)
            svc.register("b", two_triangles())  # same content, new name
            assert svc.mincut("b", trials=2, seed=1)["cached"] is True

    def test_stcut_uses_oracle_and_reports_cache(self):
        with CutService() as svc:
            svc.register("g", two_triangles())
            cold = svc.stcut("g", 0, 4)
            warm = svc.stcut("g", 1, 5)
            assert cold["weight"] == warm["weight"] == 1.0
            assert cold["cached"] is False
            assert warm["cached"] is True
            stats = svc.stats()
            (oracle_stats,) = stats["oracles"].values()
            assert oracle_stats["builds"] == 1
            assert oracle_stats["tree_queries"] == 2

    def test_stcut_resolves_string_vertex_ids(self):
        with CutService() as svc:
            svc.register("g", two_triangles())
            assert svc.stcut("g", "0", "4")["weight"] == 1.0

    def test_reregistration_releases_stale_oracle(self):
        # Replacing a name's content must not leak the old graph's
        # oracle (a long-lived serve process re-registers updated
        # graphs indefinitely).
        with CutService() as svc:
            svc.register("g", two_triangles())
            svc.stcut("g", 0, 4)
            assert len(svc.stats()["oracles"]) == 1
            svc.register("g", Graph(edges=[(0, 1, 7.0)]))
            assert len(svc.stats()["oracles"]) == 0
            assert svc.stcut("g", 0, 1)["weight"] == 7.0
            assert svc.stats()["store"]["replaced"] == 1

    def test_cached_hit_reports_queried_name(self):
        with CutService() as svc:
            svc.register("a", two_triangles())
            svc.mincut("a", trials=2, seed=1)
            svc.register("b", two_triangles())
            hit = svc.mincut("b", trials=2, seed=1)
            assert hit["cached"] is True
            assert hit["graph"] == "b"

    def test_eviction_releases_oracle(self):
        with CutService(store_capacity=1) as svc:
            svc.register("a", two_triangles())
            svc.stcut("a", 0, 4)
            assert len(svc.stats()["oracles"]) == 1
            svc.register("b", Graph(edges=[(0, 1, 1.0)]))  # evicts a
            assert len(svc.stats()["oracles"]) == 0
            with pytest.raises(KeyError):
                svc.stcut("a", 0, 4)

    def test_kcut_query(self):
        with CutService() as svc:
            svc.register("g", two_triangles())
            res = svc.kcut("g", 2, seed=1)
            assert res["weight"] == 1.0
            assert sorted(len(p) for p in res["parts"]) == [3, 3]
            assert svc.kcut("g", 2, seed=1)["cached"] is True


def test_served_ops_execute_no_ampc_rounds(monkeypatch):
    """Every served op charges its AMPC rounds by lemma and executes none.

    With zero executed rounds, how the runtime executes a round can
    change neither a served answer nor a served timing.  The
    ``ampc_sort`` call at the end is a positive control showing the
    counters do see executed rounds.
    """
    from repro.ampc import AMPCConfig, AMPCRuntime
    from repro.ampc.primitives import ampc_sort

    calls = {"round": 0, "column_round": 0}

    def counting(name):
        original = getattr(AMPCRuntime, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(AMPCRuntime, name, counting(name))

    with CutService() as svc:
        svc.register("g", planted_cut(48, seed=3).graph)
        mincut = svc.mincut("g", trials=2, seed=1, preprocess="safe")
        kcut = svc.kcut("g", 3, seed=1)
        svc.stcut("g", 0, 40)
        svc.gomoryhu("g")
        svc.sparsestcut("g")
        svc.mutate("g", reweights=[[0, 1, 4.0]])
        svc.kernelize("g", level="safe")
        svc.mincut("g", trials=2, seed=1, preprocess="safe")
    assert calls == {"round": 0, "column_round": 0}
    assert mincut["rounds"] > 0 and kcut["rounds"] > 0

    ampc_sort(AMPCConfig(n_input=64), list(range(64, 0, -1)))
    assert calls["round"] + calls["column_round"] > 0


# ======================================================================
# End-to-end HTTP round trip
# ======================================================================
@pytest.fixture
def live_server():
    service = CutService()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.url
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


class TestHTTPEndToEnd:
    def test_full_round_trip(self, live_server):
        url = live_server
        assert request_json(url, "/healthz") == {"ok": True}

        reg = request_json(
            url,
            "/graphs",
            {
                "name": "g",
                "edges": [
                    [0, 1, 2.0], [1, 2, 2.0], [2, 0, 2.0],
                    [3, 4, 2.0], [4, 5, 2.0], [5, 3, 2.0],
                    [2, 3, 1.0],
                ],
            },
        )
        assert reg["num_vertices"] == 6
        listing = request_json(url, "/graphs")
        assert [g["name"] for g in listing["graphs"]] == ["g"]

        mc = request_json(url, "/mincut", {"graph": "g", "trials": 2, "seed": 1})
        assert mc["weight"] == 1.0 and mc["cached"] is False
        assert request_json(
            url, "/mincut", {"graph": "g", "trials": 2, "seed": 1}
        )["cached"] is True

        # repeated /stcut: second query must be served from the GH cache
        first = request_json(url, "/stcut", {"graph": "g", "s": 0, "t": 4})
        second = request_json(url, "/stcut", {"graph": "g", "s": 1, "t": 5})
        assert first["weight"] == second["weight"] == 1.0
        assert first["cached"] is False and second["cached"] is True
        stats = request_json(url, "/stats")
        (oracle_stats,) = stats["oracles"].values()
        assert oracle_stats["builds"] == 1
        assert oracle_stats["tree_queries"] == 2
        assert stats["results"]["hits"] >= 1

    def test_batch_isolates_errors(self, live_server):
        url = live_server
        request_json(url, "/graphs", {"name": "g", "edges": [[0, 1], [1, 2]]})
        resp = request_json(
            url,
            "/batch",
            {
                "requests": [
                    {"op": "stcut", "graph": "g", "s": 0, "t": 2},
                    {"op": "stcut", "graph": "missing", "s": 0, "t": 2},
                    {"op": "kcut", "graph": "g", "k": 2},
                ]
            },
        )
        ok1, bad, ok2 = resp["responses"]
        assert ok1["weight"] == 1.0
        assert "error" in bad and "missing" in bad["error"]
        assert ok2["weight"] == 1.0

    def test_error_statuses(self, live_server):
        url = live_server
        assert "error" in request_json(url, "/mincut", {"graph": "nope"})
        assert "error" in request_json(url, "/nonsense", {"x": 1})
        assert "error" in request_json(url, "/stcut", {"graph": "nope"})
        assert "error" in request_json(url, "/unknown-get")

    def test_register_missing_file_is_json_error_not_dead_socket(
        self, live_server
    ):
        # FileNotFoundError must map to a JSON 4xx, not kill the
        # handler thread mid-request.
        resp = request_json(
            url := live_server, "/graphs", {"name": "g", "path": "/no/such/file"}
        )
        assert "error" in resp
        # the server is still alive and serving
        assert request_json(url, "/healthz") == {"ok": True}

    def test_batch_survives_unexpected_item_errors(self, live_server):
        url = live_server
        resp = request_json(
            url,
            "/batch",
            {
                "requests": [
                    {"op": "graphs", "name": "x", "path": "/no/such/file"},
                    {"op": "graphs", "name": "ok", "edges": [[0, 1]]},
                ]
            },
        )
        bad, good = resp["responses"]
        assert "error" in bad
        assert good["num_vertices"] == 2
