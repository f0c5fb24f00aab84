"""E14 — in-process columnar rounds vs. the object-path reference.

Times the four hot primitives (sample sort, prefix scan, list ranking,
graph connectivity) at E12-ish scales twice: as the library runs them
(columnar round specs, every machine of a round in one vectorized
in-process call) and on their object reference (one Python closure
per machine, executed in index order).  Correctness is asserted
(bit-identical outputs) — the timing answers only "what did the
columnar runtime buy".

Results land in ``BENCH_PR9.json`` (override the path with the
``BENCH_PR9`` environment variable): per-primitive wall clock for both
paths and the speedup.  Both paths are single-threaded, so the ≥2x
geometric-mean floor applies on every host.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_columnar_rounds.py -q``
"""

from __future__ import annotations

import json
import math
import os
import random
import time

from conftest import emit

from repro.ampc import AMPCConfig
from repro.ampc.primitives import (
    ampc_graph_components,
    ampc_list_rank,
    ampc_prefix_sums,
    ampc_sort,
)
from repro.ampc.primitives.connectivity import _graph_components_object
from repro.ampc.primitives.listrank import _list_rank_object
from repro.ampc.primitives.prefix import _prefix_object
from repro.ampc.primitives.sort import _sort_object
from repro.analysis.harness import ExperimentReport

_CPUS = os.cpu_count() or 1
_REPEATS = 3
_RESULTS_PATH = os.environ.get("BENCH_PR9", ".bench/BENCH_PR9.json")


def _sort_input():
    rng = random.Random(41)
    return AMPCConfig(n_input=4096), [rng.randrange(10**6) for _ in range(4096)]


def _prefix_input():
    rng = random.Random(42)
    return AMPCConfig(n_input=8000), [rng.randrange(-100, 100) for _ in range(8000)]


def _listrank_input():
    rng = random.Random(43)
    order = list(range(2000))
    rng.shuffle(order)
    successor = {order[i]: order[i + 1] for i in range(1999)}
    successor[order[-1]] = None
    return AMPCConfig(n_input=2000), successor


def _connectivity_input():
    rng = random.Random(44)
    edges = [(rng.randrange(3000), rng.randrange(3000)) for _ in range(6000)]
    return AMPCConfig(n_input=3000), list(range(3000)), edges


#: name -> (input builder, library run, object-reference run)
_PRIMITIVES = {
    "sort_n4096": (
        _sort_input,
        lambda cfg, values: ampc_sort(cfg, values),
        lambda cfg, values: _sort_object(cfg, values),
    ),
    "prefix_n8000": (
        _prefix_input,
        lambda cfg, values: ampc_prefix_sums(cfg, values),
        lambda cfg, values: _prefix_object(cfg, values)[0],
    ),
    "listrank_n2000": (
        _listrank_input,
        lambda cfg, succ: sorted(ampc_list_rank(cfg, succ, seed=5).items()),
        lambda cfg, succ: sorted(_list_rank_object(cfg, succ, seed=5).items()),
    ),
    "connectivity_n3000_m6000": (
        _connectivity_input,
        lambda cfg, vs, es: sorted(ampc_graph_components(cfg, vs, es).items()),
        lambda cfg, vs, es: sorted(_graph_components_object(cfg, vs, es).items()),
    ),
}


def _timed(fn, args) -> tuple[object, float]:
    best = math.inf
    out = None
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_e14_columnar_vs_object_rounds(report_sink):
    report = ExperimentReport(
        experiment=(
            f"E14: in-process columnar rounds vs object-path reference "
            f"({_CPUS} CPUs, best of {_REPEATS})"
        ),
        columns=["primitive", "object_s", "columnar_s", "speedup"],
    )

    results: dict[str, dict] = {}
    speedups: list[float] = []
    for name, (make_input, library, reference) in _PRIMITIVES.items():
        args = make_input()
        ref_out, object_s = _timed(reference, args)
        out, columnar_s = _timed(library, args)
        assert out == ref_out, f"{name}: columnar output diverged from object"
        speedup = object_s / columnar_s
        speedups.append(speedup)
        results[name] = {
            "object_s": object_s,
            "columnar_s": columnar_s,
            "speedup": speedup,
        }
        report.rows.append([name, object_s, columnar_s, speedup])
    emit(report_sink, report)

    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    payload = {
        "experiment": "E14 in-process columnar rounds vs object reference",
        "cpu_count": _CPUS,
        "repeats": _REPEATS,
        "primitives": results,
        "geomean_speedup": geomean,
    }
    with open(_RESULTS_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    assert geomean >= 2.0, (
        f"columnar geomean speedup {geomean:.2f}x < 2x over the object "
        f"reference on a {_CPUS}-CPU host"
    )
