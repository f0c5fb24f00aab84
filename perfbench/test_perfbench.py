"""Self-tests of the benchmark's own rules (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import verify  # noqa: E402
from host import REFERENCE_S  # noqa: E402
from stats import TooFewSamples, min_samples, percentile  # noqa: E402
from workloads import Meter, Window, make_graph  # noqa: E402

from repro.service import CutService  # noqa: E402


# ----------------------------------------------------------------------
# percentile / sample-count rule
# ----------------------------------------------------------------------
def test_upper_percentile_needs_ten_samples_beyond_it():
    assert min_samples(90) == 100
    assert min_samples(99) == 1000
    assert percentile(range(1, 101), 90) == 90
    with pytest.raises(TooFewSamples):
        percentile(range(99), 90)
    with pytest.raises(TooFewSamples):
        percentile(range(999), 99)


def test_median_is_a_measured_sample():
    assert percentile([0.3, 0.1, 0.2, 0.4], 50) == 0.2
    assert percentile([5.0], 50) == 5.0
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def _window(stcut_s: float, gauge_s: float = REFERENCE_S) -> Window:
    """A window of 10 requests in 1 s: 100 stcuts of ``stcut_s``, 10
    gomoryhus of 0.5 s, one 1 s sample of every other op."""
    window = Window(completed=10, wall_s=1.0, gauge_s=[gauge_s])
    window.samples["stcut"] = [stcut_s] * 100
    window.samples["gomoryhu"] = [0.5] * 10
    for op in window.samples:
        window.samples[op] = window.samples[op] or [1.0]
    return window


def _meter(*windows: Window) -> Meter:
    meter = Meter(client=None)
    meter.windows = list(windows)
    for window in windows:
        for op, samples in window.samples.items():
            meter.samples[op] += samples
        meter.completed += window.completed
    return meter


def test_percentiles_never_mix_ops():
    window = _window(0.001)
    window.samples["mincut"] = window.samples["mutate"] = [0.1, 0.1, 0.4]
    meter = _meter(window)
    assert set(meter.samples) == {
        "upload", "mincut", "kcut", "sparsestcut", "gomoryhu", "stcut",
        "batch", "mutate",
    }
    metrics = run.e2e_metrics(meter, [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)], 10.0)
    assert metrics["stcut_p50_s"] == (0.001, "s", 100)
    assert metrics["stcut_p90_s"] == (0.001, "s", 100)
    assert metrics["gomoryhu_mean_s"] == (0.5, "s", 10)
    # solver endpoints report means, the other ops medians
    assert metrics["mincut_mean_s"] == (pytest.approx(0.2), "s", 3)
    assert metrics["mutate_p50_s"] == (0.1, "s", 3)
    assert metrics["setup_s"] == (2.0, "s", 3)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert set(metrics) == declared


def test_each_sample_is_scaled_by_its_windows_host_gauge():
    # the second window was read on a host at half speed: its times
    # count halved and its wall time halved; raw values stay as measured
    meter = _meter(_window(0.002), _window(0.004, gauge_s=2 * REFERENCE_S))
    metrics = run.e2e_metrics(meter, [(3.0, 0.5), (1.0, 1.0), (2.0, 1.0)], 10.0)
    assert metrics["stcut_p50_s"] == (0.002, "s", 200)
    assert metrics["stcut_p90_s"] == (0.002, "s", 200)
    assert metrics["throughput_rps"][0] == pytest.approx(20 / 1.5)
    assert metrics["setup_s"] == (1.5, "s", 3)
    raw = run.e2e_metrics(meter, [(3.0, 0.5), (1.0, 1.0), (2.0, 1.0)], 10.0,
                          normalize=False)
    assert raw["stcut_p50_s"] == (0.002, "s", 200)
    assert raw["stcut_p90_s"] == (0.004, "s", 200)
    assert raw["throughput_rps"] == (10.0, "1/s", 20)
    assert raw["setup_s"] == (2.0, "s", 3)


def test_layer_metric_names_match_the_declaration():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    computed = {"http.wire_s", "http.response_bytes", "cache.hit_ratio",
                "oracle.useful_ratio", "graph.cut_weight_calls",
                "ampc.rounds_charged", "trace.overhead"}
    computed |= {metric for metric, _, _ in run.SPAN_METRICS}
    computed |= {f"oracle.{f}" for f in run.ORACLE_COUNTERS}
    assert computed == declared


# ----------------------------------------------------------------------
# verification catches corrupted answers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served():
    graph = make_graph("planted", 24, 0, random.Random(5))
    with CutService() as svc:
        svc.register("g", graph)
        yield graph, {
            "mincut": svc.mincut("g", trials=2),
            "kcut": svc.kcut("g", 3),
            "stcut": svc.stcut("g", 0, 17),
            "gomoryhu": svc.gomoryhu("g"),
            "sparsestcut": svc.sparsestcut("g", trials=1),
        }


def _roundtrip(payload):
    return json.loads(json.dumps(payload))


def test_correct_answers_pass(served):
    graph, answers = served
    ref = verify.Reference(graph)
    assert verify.check_mincut(_roundtrip(answers["mincut"]), ref) is None
    assert verify.check_kcut(_roundtrip(answers["kcut"]), graph, 3) is None
    assert verify.check_stcut(_roundtrip(answers["stcut"]), ref, 0, 17) is None
    per_pair = verify.Reference(graph, pairs_from_tree=False)
    assert verify.check_stcut(_roundtrip(answers["stcut"]), per_pair, 0, 17) is None
    assert verify.check_gomoryhu(_roundtrip(answers["gomoryhu"]), ref) is None
    assert verify.check_sparsest(_roundtrip(answers["sparsestcut"]), graph) is None


def test_corrupted_answers_are_caught(served):
    graph, answers = served
    ref = verify.Reference(graph)

    mincut = _roundtrip(answers["mincut"])
    mincut["weight"] *= 3
    assert verify.check_mincut(mincut, ref)

    mincut = _roundtrip(answers["mincut"])
    mincut["side"] = mincut["side"][:-1]
    assert verify.check_mincut(mincut, ref)

    kcut = _roundtrip(answers["kcut"])
    kcut["parts"][0].append(kcut["parts"][1].pop())
    assert verify.check_kcut(kcut, graph, 3)

    stcut = _roundtrip(answers["stcut"])
    stcut["weight"] += 0.5
    assert verify.check_stcut(stcut, ref, 0, 17)

    gh = _roundtrip(answers["gomoryhu"])
    gh["matrix"][1][2] += 1.0
    assert verify.check_gomoryhu(gh, ref)

    sparsest = _roundtrip(answers["sparsestcut"])
    sparsest["sparsity"] *= 0.5
    assert verify.check_sparsest(sparsest, graph)


class _FakeClient:
    def __init__(self, status, raw):
        self.status, self.raw, self.posts = status, raw, []

    def post(self, path, body):
        self.posts.append((path, 0.01, len(self.raw)))
        return self.status, self.raw, 0.01


def test_wrong_answer_and_http_error_count_as_failed_ops():
    meter = _meter(Window())
    meter.client = _FakeClient(200, b'{"weight": 1.0}')
    raw = meter.request("stcut", "stcut", {"graph": "g", "s": 0, "t": 1})
    meter.defer("stcut", lambda: "stcut(0,1): 1.0 != 2.0")
    meter.run_checks()
    assert raw is not None
    assert meter.attempted["stcut"] == 1 and meter.failed["stcut"] == 1

    meter = _meter(Window())
    meter.client = _FakeClient(500, b'{"error": "boom"}')
    assert meter.request("mincut", "mincut", {"graph": "g"}) is None
    assert meter.failed["mincut"] == 1 and meter.samples["mincut"] == []


# ----------------------------------------------------------------------
# zero-fire guard
# ----------------------------------------------------------------------
def test_zero_fire_guard():
    fired = {name: [1, 0.1, 0.1] for name in run.MUST_FIRE["serve-warm"]}
    hits = {"results.hits": 40, "results.misses": 0}
    assert run.zero_fire_errors("serve-warm", fired, hits) == []
    missing = dict(fired)
    del missing["oracle.query"]
    assert run.zero_fire_errors("serve-warm", missing, hits) == [
        "zero-fire: oracle.query never fired on serve-warm"
    ]
    solver = dict(fired, **{"core.sweep": [3, 0.1, 0.1]})
    assert run.zero_fire_errors("serve-warm", solver, hits) == [
        "zero-fire: core.sweep fired on serve-warm"
    ]
    assert run.zero_fire_errors("serve-warm", fired, {"results.hits": 0}) == [
        "zero-fire: counter results.hits stayed 0 on serve-warm"
    ]


@pytest.mark.parametrize("counter", run.MUST_COUNT["mutate-stream"])
def test_zero_fire_guard_checks_counters(counter):
    fired = {name: [1, 0.1, 0.1] for name in run.MUST_FIRE["mutate-stream"]}
    moved = {name: 7 for name in run.MUST_COUNT["mutate-stream"]}
    assert run.zero_fire_errors("mutate-stream", fired, moved) == []
    assert run.zero_fire_errors(
        "mutate-stream", fired, dict(moved, **{counter: 0})
    ) == [f"zero-fire: counter {counter} stayed 0 on mutate-stream"]
    assert "preprocess.kernelize" in run.MUST_FIRE["mutate-stream"]
