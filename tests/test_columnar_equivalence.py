"""Differential harness: columnar shm fast paths vs. the object path.

``repro.ampc.columnar`` promises that every vectorized primitive
mirrors the object implementation's round structure exactly — same
outputs bit-for-bit, same number of measured rounds, same reason
strings in the same order — while word/query accounting may differ
(array sizes vs. :func:`repro.ampc.dht.word_size` recursion; the
documented tolerance).  This suite checks that promise primitive by
primitive, runs the full mincut pipeline over the shared cut corpus,
and pins the shm pool mechanics the speedup depends on:

* the spawn pool persists across rounds (``ampc.pool.warm_rounds``
  grows during a multi-round plan — the backend does not pay a
  process start per round and has no fork dependency);
* inputs outside the columnar contract (strings, floats in prefix,
  custom sort keys, NaN) silently take the object path under shm and
  still match serial;
* errors raised inside pool workers surface with the object path's
  exact message.
"""

from __future__ import annotations

import random

import pytest

from cutcorpus import connected_corpus
from repro.ampc import AMPCConfig, RoundLedger
from repro.ampc.backends import resolve_backend
from repro.ampc.backends.shm import METRICS
from repro.ampc.primitives import (
    ampc_graph_components,
    ampc_list_rank,
    ampc_min_prefix_sum,
    ampc_prefix_sums,
    ampc_sort,
)
from repro.core import ampc_min_cut

SHM = "shm:2"


def _cfg(n: int, backend: str | None, eps: float = 0.5) -> AMPCConfig:
    return AMPCConfig(n_input=max(1, n), eps=eps, backend=backend)


def _structure(ledger: RoundLedger) -> list[tuple[int, str, str]]:
    return [(e.rounds, e.kind, e.reason) for e in ledger.entries]


def _both(run):
    """Run a workload under serial and shm; return both observations."""
    out_ref, led_ref = run("serial")
    out_shm, led_shm = run(SHM)
    return (out_ref, _structure(led_ref)), (out_shm, _structure(led_shm))


# ----------------------------------------------------------------------
# Primitive-level equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 500, 1500])
def test_prefix_sums_match_object_path(n):
    rng = random.Random(n)
    values = [rng.randrange(-1000, 1000) for _ in range(n)]

    def run(backend):
        ledger = RoundLedger()
        out = ampc_prefix_sums(_cfg(n, backend), values, ledger=ledger)
        return out, ledger

    ref, shm = _both(run)
    assert shm == ref


def test_min_prefix_sum_matches_object_path():
    rng = random.Random(9)
    values = [rng.randrange(-50, 40) for _ in range(700)]

    def run(backend):
        ledger = RoundLedger()
        out = ampc_min_prefix_sum(_cfg(700, backend), values, ledger=ledger)
        return out, ledger

    ref, shm = _both(run)
    assert shm == ref


@pytest.mark.parametrize(
    "name,values",
    [
        ("ints", [random.Random(1).randrange(10**6) for _ in range(800)]),
        ("dups", [i % 5 for i in range(600)]),
        ("floats", [random.Random(2).uniform(-10, 10) for _ in range(500)]),
        ("signed_zero", [0.0, -0.0, 1.0, -0.0, 0.0] * 40),
        ("tiny", [3, 1, 2]),
    ],
)
def test_sort_matches_object_path(name, values):
    def run(backend):
        ledger = RoundLedger()
        out = ampc_sort(_cfg(len(values), backend), values, ledger=ledger)
        return out, ledger

    ref, shm = _both(run)
    assert shm[0] == ref[0], name
    # -0.0 == 0.0 under ==; also demand identical bit patterns.
    assert [repr(v) for v in shm[0]] == [repr(v) for v in ref[0]], name
    assert shm[1] == ref[1], name


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (40, 2), (300, 3)])
def test_list_rank_matches_object_path(n, seed):
    rng = random.Random(seed)
    order = list(range(-n // 2, n - n // 2))  # negative ids included
    rng.shuffle(order)
    successor = {order[i]: order[i + 1] for i in range(n - 1)}
    successor[order[-1]] = None

    def run(backend):
        ledger = RoundLedger()
        out = ampc_list_rank(
            _cfg(n, backend), successor, ledger=ledger, seed=seed
        )
        return sorted(out.items()), ledger

    ref, shm = _both(run)
    assert shm == ref


def test_graph_components_match_object_path():
    rng = random.Random(5)
    vertices = rng.sample(range(-100, 100), 60)
    edges = [
        (rng.choice(vertices), rng.choice(vertices)) for _ in range(90)
    ]

    def run(backend):
        ledger = RoundLedger()
        out = ampc_graph_components(
            _cfg(60, backend), vertices, edges, ledger=ledger
        )
        return sorted(out.items()), ledger

    ref, shm = _both(run)
    assert shm == ref


# ----------------------------------------------------------------------
# Full pipeline over the shared cut corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,graph", connected_corpus(), ids=[n for n, _ in connected_corpus()]
)
def test_mincut_over_corpus_matches_serial(name, graph):
    def config(backend: str) -> AMPCConfig:
        return AMPCConfig(
            n_input=graph.num_vertices, m_input=graph.num_edges, backend=backend
        )

    ref = ampc_min_cut(graph, eps=0.5, seed=3, config=config("serial"))
    got = ampc_min_cut(graph, eps=0.5, seed=3, config=config(SHM))
    assert got.weight == ref.weight, name
    assert sorted(got.cut.side, key=repr) == sorted(ref.cut.side, key=repr)
    assert got.ledger.rounds == ref.ledger.rounds, name
    assert _structure(got.ledger) == _structure(ref.ledger), name


# ----------------------------------------------------------------------
# Pool mechanics: persistence, warm rounds, fallbacks, error surface
# ----------------------------------------------------------------------
def test_pool_persists_across_rounds_without_fork():
    backend = resolve_backend(SHM)
    assert backend.supports_columnar
    warm_before = METRICS.counter("ampc.pool.warm_rounds").value
    cold_before = METRICS.counter("ampc.pool.cold_starts").value
    rounds_before = METRICS.counter("ampc.shm.rounds").value

    values = [random.Random(11).randrange(10**6) for _ in range(1200)]
    out = ampc_sort(_cfg(1200, SHM, eps=0.4), values)
    assert out == sorted(values)

    assert METRICS.counter("ampc.shm.rounds").value > rounds_before
    # A multi-round plan reuses the pool: at most one cold start, and
    # every pooled round after the first is warm.
    assert METRICS.counter("ampc.pool.cold_starts").value <= cold_before + 1
    assert METRICS.counter("ampc.pool.warm_rounds").value > warm_before


def test_shm_metrics_reach_service_payload():
    from repro.service import CutService

    with CutService() as service:
        payload = service.metrics_payload()
    for key in (
        "ampc.shm.attach",
        "ampc.shm.rounds",
        "ampc.shm.bytes_shared",
        "ampc.pool.warm_rounds",
    ):
        assert key in payload["counters"], key


@pytest.mark.parametrize(
    "name,values,kwargs",
    [
        ("strings", ["pear", "fig", "apple", "fig"], {}),
        ("custom_key", list(range(40)), {"key": lambda v: -v}),
        ("bools", [True, False, True, False] * 10, {}),
        ("nan", [2.0, float("nan"), 1.0], {}),
    ],
)
def test_sort_fallback_paths_under_shm(name, values, kwargs):
    ref = ampc_sort(_cfg(len(values), "serial"), values, **kwargs)
    got = ampc_sort(_cfg(len(values), SHM), values, **kwargs)
    assert [repr(v) for v in got] == [repr(v) for v in ref], name


def test_prefix_fallback_for_floats_under_shm():
    values = [0.5, -1.25, 3.0, 0.25]
    ref = ampc_prefix_sums(_cfg(4, "serial"), values)
    got = ampc_prefix_sums(_cfg(4, SHM), values)
    assert got == ref


def test_listrank_fallback_for_string_nodes_under_shm():
    successor = {"a": "b", "b": "c", "c": None}
    ref = ampc_list_rank(_cfg(3, "serial"), successor, seed=1)
    got = ampc_list_rank(_cfg(3, SHM), successor, seed=1)
    assert got == ref


def test_listrank_cycle_error_matches_object_message():
    n = 40
    successor = {i: (i + 1) % n for i in range(n)}  # a pure cycle
    with pytest.raises(ValueError) as ref_exc:
        ampc_list_rank(_cfg(n, "serial"), successor, seed=2)
    with pytest.raises(ValueError) as shm_exc:
        ampc_list_rank(_cfg(n, SHM), successor, seed=2)
    assert str(shm_exc.value) == str(ref_exc.value)
