"""Open-loop load generator contracts (repro.obs.loadgen).

A real (tiny) run against an in-process server, plus the pure parts:
the schedule is deterministic in the seed, the report carries every
op class it scheduled, and ``check_slos`` reads floors honestly.
"""


import pytest

from repro.obs import LoadGen, LoadGenConfig, check_slos
from repro.obs.loadgen import _percentile
from repro.service import CutService, make_server, request_json
from conftest import serving


@pytest.fixture()
def server():
    service = CutService()
    with serving(make_server(service)) as srv:
        yield srv
    service.close()


def _config(url, **overrides):
    base = dict(
        url=url, rate=40.0, duration_s=1.0, max_inflight=8,
        graphs=1, graph_n=24, seed=2, probe_s=0.2,
    )
    base.update(overrides)
    return LoadGenConfig(**base)


def test_run_reports_every_op_class(server):
    report = LoadGen(_config(server.url)).run()
    assert report["harness"] == "open-loop-loadgen"
    assert report["planned_requests"] == 40
    assert report["completed_requests"] == 40
    assert report["errors"] == 0
    assert set(report["op_classes"]) <= set(LoadGenConfig(url="x").mix)
    for op, row in report["op_classes"].items():
        assert row["count"] >= 1, op
        assert 0 <= row["p50_s"] <= row["p95_s"] <= row["p99_s"] <= row["max_s"]
        assert row["service_p50_s"] <= row["p50_s"] + 1e-9  # queue wait included
    assert report["achieved_rps"] > 0
    assert report["saturation_rps"] > 0  # probe_s > 0 ran the probe
    assert report["config"]["seed"] == 2


def test_schedule_is_deterministic_in_the_seed():
    # mutate/upload payloads reference the registered corpus, so the
    # offline schedule check sticks to the pure query classes
    mix = {"mincut": 2.0, "stcut": 2.0, "batch": 1.0}
    cfg = LoadGenConfig(
        url="http://unused", rate=100, duration_s=2.0, seed=7, mix=mix
    )
    a = LoadGen(cfg)._schedule()
    b = LoadGen(cfg)._schedule()
    assert a == b
    assert len(a) == 200
    other = LoadGen(
        LoadGenConfig(
            url="http://unused", rate=100, duration_s=2.0, seed=8, mix=mix
        )
    )._schedule()
    assert a != other


def test_config_validation():
    with pytest.raises(ValueError, match="rate"):
        LoadGen(LoadGenConfig(url="x", rate=0))
    with pytest.raises(ValueError, match="max_inflight"):
        LoadGen(LoadGenConfig(url="x", max_inflight=0))
    with pytest.raises(ValueError, match="mix"):
        LoadGen(LoadGenConfig(url="x", mix={}))
    with pytest.raises(ValueError, match="unknown op classes"):
        LoadGen(LoadGenConfig(url="x", mix={"nosuch": 1.0}))
    with pytest.raises(ValueError, match="decrease_fraction"):
        LoadGen(LoadGenConfig(url="x", decrease_fraction=1.5))
    with pytest.raises(ValueError, match="decrease_fraction"):
        LoadGen(LoadGenConfig(url="x", decrease_fraction=-0.1))


def test_decrease_fraction_controls_mutate_payloads():
    """The knob is honest: 1.0 means every mutate is a downward
    reweight (half the initial weight — dyadic, strictly positive, so
    the mutated graph can never disconnect); 0.0 restores the old
    increase-only reinforcement traffic."""
    def _gen(fraction, seed=5):
        cfg = LoadGenConfig(
            url="http://unused", rate=60, duration_s=1.0, seed=seed,
            mix={"mutate": 1.0}, decrease_fraction=fraction,
        )
        lg = LoadGen(cfg)
        lg._mut_edges = [[0, 1, 4.0], [1, 2, 4.0], [2, 0, 1.0]]
        return lg._schedule()

    initial = {(0, 1): 4.0, (1, 2): 4.0, (2, 0): 1.0}
    all_dec = _gen(1.0)
    assert len(all_dec) == 60
    for _op, path, payload in all_dec:
        assert path == "/mutate"
        assert "adds" not in payload
        [[u, v, w]] = payload["reweights"]
        assert w == initial[(u, v)] * 0.5
        assert w > 0
    all_inc = _gen(0.0)
    assert all("adds" in p and "reweights" not in p
               for _op, _path, p in all_inc)
    mixed = _gen(0.5, seed=9)
    kinds = {("reweights" in p) for _op, _path, p in mixed}
    assert kinds == {True, False}  # both traffic shapes present


def test_decreases_reach_the_oracle(server):
    """End to end: decrease mutate traffic lands on a *built* retained
    Gomory-Hu oracle and drives the repair path, visible in /stats.

    The oracle for the mutated graph is warmed before the run (same
    edges => same fingerprint => same oracle entry survives the
    loadgen's own corpus upload), so every scheduled decrease hits a
    live tree instead of the lazy "unbuilt" fast path.
    """
    from repro.workloads import planted_cut

    graph_n = 24
    mut = planted_cut(graph_n, inner_degree=4, seed=999).graph
    edges = [[u, v, w] for u, v, w in mut.edges()]
    request_json(server.url, "/graphs", {"name": "lgmut", "edges": edges})
    request_json(server.url, "/stcut", {"graph": "lgmut", "s": 0, "t": 1})

    cfg = _config(
        server.url, rate=40.0, duration_s=1.0, max_inflight=1,
        probe_s=0.0, seed=3, graph_n=graph_n, decrease_fraction=1.0,
        mix={"stcut": 2.0, "mutate": 2.0},
    )
    report = LoadGen(cfg).run()
    assert report["errors"] == 0
    assert report["config"]["decrease_fraction"] == 1.0
    assert report["op_classes"]["mutate"]["count"] >= 1

    # settle any still-pending net so the repair-vs-fallback decision
    # has definitely been taken, then read the counters
    request_json(server.url, "/stcut", {"graph": "lgmut", "s": 0, "t": 1})
    stats = request_json(server.url, "/stats")
    retained = sum(o["deltas_retained"] for o in stats["oracles"].values())
    repairs = sum(o["repairs"] for o in stats["oracles"].values())
    fallbacks = sum(o["repair_fallbacks"] for o in stats["oracles"].values())
    assert retained >= 1          # decreases reached a live oracle
    assert repairs + fallbacks >= 1  # ... and forced a settle decision


def test_unreachable_server_raises_connection_error():
    with pytest.raises(ConnectionError):
        LoadGen(_config("http://127.0.0.1:9", probe_s=0.0)).run()


def test_percentile_indexing():
    values = [1.0, 2.0, 3.0, 4.0]
    assert _percentile(values, 0.5) == 2.0
    assert _percentile(values, 0.99) == 4.0
    assert _percentile([5.0], 0.5) == 5.0


def _fake_report():
    return {
        "achieved_rps": 30.0,
        "completed_requests": 98,
        "planned_requests": 100,
        "errors": 2,
        "saturation_rps": 120.0,
        "op_classes": {
            "mincut": {"count": 50, "errors": 0, "p99_s": 0.4},
            "stcut": {"count": 48, "errors": 2, "p99_s": 0.1},
        },
    }


def test_check_slos_passes_on_met_floors():
    assert check_slos(_fake_report(), {
        "mincut_p99_s": 0.5,
        "stcut_p99_s": 0.2,
        "min_rps": 25.0,
        "max_error_rate": 0.05,
        "min_saturation_rps": 100.0,
    }) == []


def test_check_slos_reports_each_violation():
    violations = check_slos(_fake_report(), {
        "mincut_p99_s": 0.3,     # 0.4 > 0.3
        "min_rps": 35.0,         # 30 < 35
        "max_error_rate": 0.01,  # 2/98 > 1%
        "min_saturation_rps": 150.0,
    })
    assert len(violations) == 4
    assert any(v.startswith("mincut p99") for v in violations)


def test_check_slos_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown SLO"):
        check_slos(_fake_report(), {"p99_of_nothing": 1.0})
