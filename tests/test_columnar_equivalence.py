"""Differential harness: columnar round specs vs. the object reference.

``repro.ampc.columnar`` promises that every vectorized primitive
mirrors the object implementation's round structure exactly — same
outputs bit-for-bit, same number of measured rounds, same reason
strings in the same order, the same local-memory peak in every round —
while total-word/query accounting may differ (array sizes vs.
:func:`repro.ampc.dht.word_size` recursion).  The
public primitives take the columnar path whenever their input fits its
contract; each keeps its object path as a private reference function,
which this suite calls directly:

* primitive by primitive, the library equals the object reference —
  the same output, round structure and per-round peaks, or the same
  exception type raised after the same completed rounds — including at
  eps 0.2, 0.3 and 0.4, where the local-memory budget is tight enough
  that some inputs must raise
  :class:`~repro.ampc.errors.MemoryLimitExceeded` on both paths;
* inputs outside the columnar contract (strings, floats in prefix,
  custom sort keys, NaN) take the object path and still match;
* the full mincut pipeline over the shared cut corpus matches a run
  with every primitive forced onto its object reference;
* errors raised inside columnar rounds carry the object path's exact
  message.
"""

from __future__ import annotations

import random

import pytest

from ampc_reference import object_reference
from cutcorpus import connected_corpus
from repro.ampc import AMPCConfig, RoundLedger
from repro.ampc.primitives import (
    ampc_graph_components,
    ampc_list_rank,
    ampc_min_prefix_sum,
    ampc_prefix_sums,
    ampc_sort,
)
from repro.ampc.primitives import connectivity, listrank, prefix, sort
from repro.core import ampc_min_cut


def _cfg(n: int, eps: float = 0.5) -> AMPCConfig:
    return AMPCConfig(n_input=max(1, n), eps=eps)


def _structure(ledger: RoundLedger) -> list[tuple[int, str, str, int]]:
    """Per round: count, kind, reason and the largest machine's peak."""
    return [(e.rounds, e.kind, e.reason, e.local_peak) for e in ledger.entries]


def _observe(run):
    """``(output, round structure)``, or ``(exception type, structure)``.

    On a raise, the structure holds the rounds completed before it, so
    two paths only agree if they fail in the same round.
    """
    ledger = RoundLedger()
    try:
        out = run(ledger)
    except Exception as exc:  # noqa: BLE001 - compared by type
        return type(exc), _structure(ledger)
    return out, _structure(ledger)


def _both(library, reference):
    """Observe the library path and the object reference on one input."""
    return _observe(library), _observe(reference)


# ----------------------------------------------------------------------
# Primitive-level equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 500, 1500])
def test_prefix_sums_match_object_path(n):
    rng = random.Random(n)
    values = [rng.randrange(-1000, 1000) for _ in range(n)]
    lib, ref = _both(
        lambda led: ampc_prefix_sums(_cfg(n), values, ledger=led),
        lambda led: prefix._prefix_object(_cfg(n), values, ledger=led)[0],
    )
    assert lib == ref


def test_min_prefix_sum_matches_object_path():
    rng = random.Random(9)
    values = [rng.randrange(-50, 40) for _ in range(700)]
    lib, ref = _both(
        lambda led: ampc_min_prefix_sum(_cfg(700), values, ledger=led),
        lambda led: prefix._prefix_object(_cfg(700), values, ledger=led)[1],
    )
    assert lib == ref


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
    cfg = _cfg(len(values))
    lib, ref = _both(
        lambda led: ampc_sort(cfg, values, ledger=led),
        lambda led: sort._sort_object(cfg, values, ledger=led),
    )
    assert lib == ref, name
    # -0.0 == 0.0 under ==; also demand identical bit patterns.
    assert [repr(v) for v in lib[0]] == [repr(v) for v in ref[0]], name


def _shuffled_list(n: int, seed: int) -> dict:
    rng = random.Random(seed)
    order = list(range(-n // 2, n - n // 2))  # negative ids included
    rng.shuffle(order)
    successor = {order[i]: order[i + 1] for i in range(n - 1)}
    successor[order[-1]] = None
    return successor


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (40, 2), (300, 3)])
def test_list_rank_matches_object_path(n, seed):
    successor = _shuffled_list(n, seed)
    lib, ref = _both(
        lambda led: sorted(
            ampc_list_rank(_cfg(n), successor, ledger=led, seed=seed).items()
        ),
        lambda led: sorted(
            listrank._list_rank_object(
                _cfg(n), successor, ledger=led, seed=seed
            ).items()
        ),
    )
    assert lib == ref


def test_graph_components_match_object_path():
    rng = random.Random(5)
    vertices = rng.sample(range(-100, 100), 60)
    edges = [
        (rng.choice(vertices), rng.choice(vertices)) for _ in range(90)
    ]
    lib, ref = _both(
        lambda led: sorted(
            ampc_graph_components(_cfg(60), vertices, edges, ledger=led).items()
        ),
        lambda led: sorted(
            connectivity._graph_components_object(
                _cfg(60), vertices, edges, ledger=led
            ).items()
        ),
    )
    assert lib == ref


# ----------------------------------------------------------------------
# Tight budgets: eps 0.2 / 0.3, where the memory check decides the
# outcome on both paths; an eps-0.5 sort whose largest bucket (1203
# words at this seed, against a budget of 1136) would raise if the
# columnar merge counted the whole bucket instead of one live piece per
# source, as the object merge does; and an eps-0.4 sort whose partition
# round (chunk 109, 275 pivots, budget 656) would raise if the columnar
# partition charged a word per bucket on top of what the object holds.
# ----------------------------------------------------------------------
_SEED = 2


def _small_eps_workload(primitive: str, n: int):
    rng = random.Random(_SEED)
    if primitive == "sort":
        values = [rng.randrange(-(10**6), 10**6) for _ in range(n)]
        return (
            lambda cfg, led: ampc_sort(cfg, values, ledger=led),
            lambda cfg, led: sort._sort_object(cfg, values, ledger=led),
        )
    if primitive == "prefix":
        values = [rng.randrange(-1000, 1000) for _ in range(n)]
        return (
            lambda cfg, led: ampc_prefix_sums(cfg, values, ledger=led),
            lambda cfg, led: prefix._prefix_object(cfg, values, ledger=led)[0],
        )
    if primitive == "listrank":
        successor = _shuffled_list(n, _SEED)
        return (
            lambda cfg, led: sorted(
                ampc_list_rank(cfg, successor, ledger=led, seed=3).items()
            ),
            lambda cfg, led: sorted(
                listrank._list_rank_object(
                    cfg, successor, ledger=led, seed=3
                ).items()
            ),
        )
    vertices = list(range(n))
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
    return (
        lambda cfg, led: sorted(
            ampc_graph_components(cfg, vertices, edges, ledger=led).items()
        ),
        lambda cfg, led: sorted(
            connectivity._graph_components_object(
                cfg, vertices, edges, ledger=led
            ).items()
        ),
    )


_SMALL_EPS_LEGS = [
    (primitive, n, eps)
    for eps in (0.2, 0.3)
    for primitive, n in (
        ("sort", 1000),
        ("sort", 5000),
        ("prefix", 1000),
        ("listrank", 1000),
        ("connectivity", 1000),
    )
] + [("sort", 10_000, 0.5), ("sort", 30_000, 0.4)]


@pytest.mark.parametrize("primitive,n,eps", _SMALL_EPS_LEGS)
def test_tight_budget_matches_object_reference(primitive, n, eps):
    library, reference = _small_eps_workload(primitive, n)
    cfg = _cfg(n, eps)
    lib, ref = _both(
        lambda led: library(cfg, led), lambda led: reference(cfg, led)
    )
    assert lib == ref, f"{primitive} n={n} eps={eps}: {lib!r:.200} != {ref!r:.200}"


# ----------------------------------------------------------------------
# Full pipeline over the shared cut corpus
# ----------------------------------------------------------------------
def _corpus_run(graph):
    config = AMPCConfig(n_input=graph.num_vertices, m_input=graph.num_edges)
    result = ampc_min_cut(graph, eps=0.5, seed=3, config=config)
    return (
        result.weight,
        sorted(result.cut.side, key=repr),
        result.ledger.rounds,
        _structure(result.ledger),
    )


@pytest.mark.parametrize(
    "name,graph", connected_corpus(), ids=[n for n, _ in connected_corpus()]
)
def test_mincut_over_corpus_matches_serial(name, graph):
    """The pipeline equals a run on the serial object reference.

    "Serial" names the object path: machine programs executed one by
    one in index order, with every primitive forced onto it.
    """
    got = _corpus_run(graph)
    with object_reference():
        assert got == _corpus_run(graph), name


# ----------------------------------------------------------------------
# Fallbacks and the error surface
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,values,kwargs",
    [
        ("strings", ["pear", "fig", "apple", "fig"], {}),
        ("custom_key", list(range(40)), {"key": lambda v: -v}),
        ("bools", [True, False, True, False] * 10, {}),
        ("nan", [2.0, float("nan"), 1.0], {}),
    ],
)
def test_sort_fallback_paths(name, values, kwargs):
    cfg = _cfg(len(values))
    got = ampc_sort(cfg, values, **kwargs)
    ref = sort._sort_object(cfg, values, **kwargs)
    assert [repr(v) for v in got] == [repr(v) for v in ref], name


def test_prefix_fallback_for_floats():
    values = [0.5, -1.25, 3.0, 0.25]
    assert ampc_prefix_sums(_cfg(4), values) == prefix._prefix_object(
        _cfg(4), values
    )[0]


def test_listrank_fallback_for_string_nodes():
    successor = {"a": "b", "b": "c", "c": None}
    got = ampc_list_rank(_cfg(3), successor, seed=1)
    assert got == listrank._list_rank_object(_cfg(3), successor, seed=1)
    assert got == {"a": 2, "b": 1, "c": 0}


def test_listrank_cycle_error_matches_object_message():
    n = 40
    successor = {i: (i + 1) % n for i in range(n)}  # a pure cycle
    with pytest.raises(ValueError) as ref_exc:
        listrank._list_rank_object(_cfg(n), successor, seed=2)
    with pytest.raises(ValueError) as lib_exc:
        ampc_list_rank(_cfg(n), successor, seed=2)
    assert str(lib_exc.value) == str(ref_exc.value)
