"""E14 — columnar shm runtime vs. the serial object-path reference.

Times the four hot primitives (sample sort, prefix scan, list ranking,
graph connectivity) at E12-ish scales under ``serial`` (object rounds:
one Python closure per machine, executed in-process) and
``shm:<CPUS>`` (columnar rounds, persistent spawn pool, zero-copy
shared-memory snapshots).  Correctness is asserted (bit-identical outputs) — the
timing answers only "what did the columnar runtime buy".

Results land in ``BENCH_PR9.json`` (override the path with the
``BENCH_PR9`` environment variable): per-primitive wall clock for both
backends, the speedup, and the shm pool counters proving the pool
stayed warm.  On hosts with >= 4 CPUs the geometric-mean speedup must
clear 2x; on smaller hosts the numbers are recorded but not gated
(there is nothing to parallelise over, although vectorization alone
usually clears the bar anyway).

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
from repro.ampc.backends.shm import METRICS
from repro.ampc.primitives import (
    ampc_graph_components,
    ampc_list_rank,
    ampc_prefix_sums,
    ampc_sort,
)
from repro.analysis.harness import ExperimentReport

_CPUS = os.cpu_count() or 1
_SERIAL = "serial"
_SHM = f"shm:{max(2, _CPUS)}"
_REPEATS = 3
_RESULTS_PATH = os.environ.get("BENCH_PR9", "BENCH_PR9.json")


def _cfg(n: int, backend: str) -> AMPCConfig:
    return AMPCConfig(n_input=n, backend=backend)


def _bench_sort(backend: str):
    rng = random.Random(41)
    values = [rng.randrange(10**6) for _ in range(4096)]
    return ampc_sort(_cfg(4096, backend), values)


def _bench_prefix(backend: str):
    rng = random.Random(42)
    values = [rng.randrange(-100, 100) for _ in range(8000)]
    return ampc_prefix_sums(_cfg(8000, backend), values)


def _bench_listrank(backend: str):
    rng = random.Random(43)
    order = list(range(2000))
    rng.shuffle(order)
    successor = {order[i]: order[i + 1] for i in range(1999)}
    successor[order[-1]] = None
    ranks = ampc_list_rank(_cfg(2000, backend), successor, seed=5)
    return sorted(ranks.items())


def _bench_connectivity(backend: str):
    rng = random.Random(44)
    vertices = list(range(3000))
    edges = [
        (rng.randrange(3000), rng.randrange(3000)) for _ in range(6000)
    ]
    comp = ampc_graph_components(_cfg(3000, backend), vertices, edges)
    return sorted(comp.items())


_PRIMITIVES = {
    "sort_n4096": _bench_sort,
    "prefix_n8000": _bench_prefix,
    "listrank_n2000": _bench_listrank,
    "connectivity_n3000_m6000": _bench_connectivity,
}


def _timed(fn, backend: str) -> tuple[object, float]:
    best = math.inf
    out = None
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        out = fn(backend)
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_e14_columnar_vs_serial_rounds(report_sink):
    report = ExperimentReport(
        experiment=(
            f"E14: columnar shm runtime vs serial object-path reference "
            f"({_CPUS} CPUs, best of {_REPEATS})"
        ),
        columns=["primitive", "serial_s", "shm_s", "speedup"],
    )
    warm_before = METRICS.counter("ampc.pool.warm_rounds").value

    results: dict[str, dict] = {}
    speedups: list[float] = []
    for name, fn in _PRIMITIVES.items():
        ref_out, serial_s = _timed(fn, _SERIAL)
        shm_out, shm_s = _timed(fn, _SHM)
        assert shm_out == ref_out, f"{name}: shm output diverged from serial"
        speedup = serial_s / shm_s
        speedups.append(speedup)
        results[name] = {
            "serial_s": serial_s,
            "shm_s": shm_s,
            "speedup": speedup,
        }
        report.rows.append([name, serial_s, shm_s, speedup])
    emit(report_sink, report)

    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    warm_rounds = METRICS.counter("ampc.pool.warm_rounds").value - warm_before
    payload = {
        "experiment": "E14 columnar shm runtime",
        "cpu_count": _CPUS,
        "backends": {"serial": _SERIAL, "shm": _SHM},
        "repeats": _REPEATS,
        "primitives": results,
        "geomean_speedup": geomean,
        "pool_warm_rounds_during_bench": warm_rounds,
        "gate_applied": _CPUS >= 4,
    }
    with open(_RESULTS_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    if _CPUS >= 4:
        assert geomean >= 2.0, (
            f"columnar shm geomean speedup {geomean:.2f}x < 2x over "
            f"{_SERIAL} on a {_CPUS}-CPU host"
        )
