"""Metrics layer contracts (repro.obs.metrics + /metrics + /stats).

Covers the primitive (counter/gauge/histogram semantics, quantile
error bounds, registry scoping) and its serving-layer surface: the
``GET /metrics`` snapshot and the ``/stats`` ``mutation`` section the
PR's satellite fix pins (``deltas_applied`` / ``cow_copies`` /
``kernel_revalidations`` were previously tracked but never surfaced).
"""

import random
import threading

import pytest

from repro.obs import Histogram, MetricsRegistry
from repro.service import CutService, make_server, request_json
from repro.workloads import planted_cut
from conftest import serving

# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------


def test_counter_concurrent_increments_are_exact():
    reg = MetricsRegistry()
    counter = reg.counter("hits")
    threads = [
        threading.Thread(target=lambda: [counter.inc() for _ in range(1000)])
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value == 8000


def test_gauge_set_and_add():
    reg = MetricsRegistry()
    g = reg.gauge("resident")
    g.set(3)
    g.add(-1)
    assert g.value == 2


def test_histogram_quantiles_within_bucket_error():
    """Estimated quantiles stay within the ~12.2% bucket width."""
    h = Histogram("latency_s")
    rng = random.Random(42)
    values = [rng.lognormvariate(-7, 1.5) for _ in range(5000)]
    for v in values:
        h.record(v)
    values.sort()
    for q in (0.5, 0.95, 0.99):
        exact = values[int(q * len(values)) - 1]
        est = h.quantile(q)
        assert est == pytest.approx(exact, rel=0.15), f"p{q}"
    s = h.summary()
    assert s["count"] == 5000
    assert s["min"] == min(values) and s["max"] == max(values)
    assert s["sum"] == pytest.approx(sum(values))
    assert s["mean"] == pytest.approx(sum(values) / 5000)


def test_histogram_edge_cases():
    h = Histogram("x")
    assert h.quantile(0.5) == 0.0  # empty
    h.record(0.0)       # at/below the first bucket bound
    h.record(1e12)      # beyond the last bucket
    assert h.count == 2
    assert h.quantile(0.0) == pytest.approx(1e-6)
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_single_value_histogram_is_tight():
    h = Histogram("x")
    for _ in range(100):
        h.record(0.010)
    for q in (0.5, 0.95, 0.99):
        assert h.quantile(q) == pytest.approx(0.010, rel=0.07)


# ----------------------------------------------------------------------
# Registry + scopes
# ----------------------------------------------------------------------


def test_registry_get_or_create_identity():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.histogram("h") is reg.histogram("h")


def test_registry_kind_collision_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError, match="different kind"):
        reg.gauge("x")
    with pytest.raises(ValueError, match="different kind"):
        reg.histogram("x")


def test_scope_prefixes_and_nests():
    reg = MetricsRegistry()
    store = reg.scope("store")
    store.counter("hits").inc()
    pairs = reg.scope("oracle").scope("pairs")
    pairs.counter("hits").inc(2)
    snap = reg.snapshot()
    assert snap["counters"] == {"store.hits": 1, "oracle.pairs.hits": 2}
    # scoped and direct access hit the same instrument
    assert store.counter("hits") is reg.counter("store.hits")


def test_histograms_prefix_filter():
    reg = MetricsRegistry()
    reg.scope("requests").scope("mincut").histogram("latency_s").record(0.01)
    reg.scope("requests").scope("stcut").histogram("latency_s").record(0.01)
    reg.histogram("other")
    names = set(reg.histograms("requests."))
    assert names == {"requests.mincut.latency_s", "requests.stcut.latency_s"}


def test_snapshot_shape():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.gauge("g").set(1.5)
    reg.histogram("h").record(0.5)
    snap = reg.snapshot()
    assert set(snap) == {"counters", "gauges", "histograms"}
    assert set(snap["histograms"]["h"]) == {
        "count", "sum", "mean", "min", "max", "p50", "p95", "p99",
    }


# ----------------------------------------------------------------------
# Serving-layer surface: /metrics and the /stats mutation section
# ----------------------------------------------------------------------


@pytest.fixture()
def server():
    service = CutService()
    with serving(make_server(service)) as srv:
        yield srv
    service.close()


def _register(url, name, n=16, seed=5):
    g = planted_cut(n, seed=seed).graph
    edges = [[u, v, w] for u, v, w in g.edges()]
    return request_json(url, "/graphs", {"name": name, "edges": edges})


def test_metrics_endpoint_reflects_traffic(server):
    _register(server.url, "g")
    request_json(server.url, "/stcut", {"graph": "g", "s": 0, "t": 15})
    request_json(server.url, "/stcut", {"graph": "g", "s": 0, "t": 15})
    body = request_json(server.url, "/metrics")
    assert set(body) >= {"counters", "gauges", "histograms"}
    counters = body["counters"]
    assert counters["store.registered"] == 1
    assert counters["store.hits"] >= 2
    # per-op request histograms carry the latency tiles
    hist = body["histograms"]["requests.stcut.latency_s"]
    assert hist["count"] == 2
    assert 0 < hist["p50"] <= hist["p99"]
    assert counters["requests.stcut.count"] == 2
    # resident-oracle aggregates + service gauges
    assert counters["oracle.tree_queries"] >= 1
    assert body["gauges"]["oracles.resident"] == 1
    assert body["gauges"]["uptime_s"] > 0


def test_stats_mutation_section_regression(server):
    """/stats surfaces the mutation counters the seed left buried."""
    _register(server.url, "a")
    _register(server.url, "b")  # same content: shares the resident graph
    request_json(
        server.url, "/mutate", {"graph": "a", "adds": [[0, 1, 0.25]]}
    )
    stats = request_json(server.url, "/stats")
    mutation = stats["mutation"]
    assert set(mutation) == {
        "deltas_applied", "cow_copies", "kernel_revalidations",
    }
    assert mutation["deltas_applied"] == 1
    # mutating one of two names sharing content must copy-on-write
    assert mutation["cow_copies"] == 1
    assert mutation["kernel_revalidations"] >= 0
    # the store section carries the raw counters too
    assert stats["store"]["deltas_applied"] == 1
    assert stats["store"]["cow_copies"] == 1
    # and the per-op request summary follows traffic
    assert stats["requests"]["mutate"]["count"] == 1
    assert stats["requests"]["mutate"]["errors"] == 0
    assert stats["tracer"]["enabled"] is True


def test_stats_and_metrics_agree_on_counters(server):
    _register(server.url, "g")
    request_json(server.url, "/mincut", {"graph": "g", "trials": 2, "seed": 1})
    stats = request_json(server.url, "/stats")
    metrics = request_json(server.url, "/metrics")
    assert (
        stats["store"]["registered"]
        == metrics["counters"]["store.registered"]
        == 1
    )
    assert (
        stats["executor"]["trials_run"]
        == metrics["counters"]["executor.trials_run"]
        == 2
    )
    assert (
        stats["results"]["misses"]
        == metrics["counters"]["results.misses"]
    )
