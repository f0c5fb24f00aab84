"""Differential harness: the shm round backend vs. the serial reference.

Each workload below runs one AMPC primitive (sort, reduce, broadcast,
list rank, Euler-tour rooting, connectivity, MST) on seeded input, once
on the serial reference and once on ``shm:2``, and demands
**bit-identical**

* outputs (whatever the workload returns, compared with ``==`` on a
  canonical representation),
* ledger round counts (measured and charged), and
* round structure — a SHA-256 over ``(rounds, kind, reason)`` per
  ledger entry, so a backend cannot reorder or re-label rounds without
  failing.

The shm backend is pinned to two workers so its spawn pool really
partitions machines even on a single-core CI runner.  Only the
primitives are compared: the core min-cut and k-cut solvers charge
their rounds by lemma and execute none, so no backend can change them.

Every comparison also lands in the session's ``equivalence_summary``
fixture; with ``EQUIVALENCE_SUMMARY=<path>`` the records are written as
a JSON artifact (the CI workflow uploads it).
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.ampc import AMPCConfig, RoundLedger, export_trace
from repro.ampc.primitives import (
    ampc_broadcast,
    ampc_forest_components,
    ampc_graph_components,
    ampc_list_rank,
    ampc_minimum_spanning_forest,
    ampc_reduce,
    ampc_root_forest,
    ampc_sort,
)
from repro.workloads import erdos_renyi, random_tree

REFERENCE = "serial"
#: columnar backend: outputs and round structure must match serial
#: bit-for-bit, but word/query accounting is array-sized rather than
#: object-sized (documented in ``repro.ampc.columnar``), so the full
#: trace digest legitimately differs — a structure digest over
#: ``(rounds, kind, reason)`` is compared instead.
COLUMNAR_BACKENDS = ["shm:2"]


def _digest(ledger: RoundLedger) -> str:
    payload = json.dumps(export_trace(ledger), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def _structure_digest(ledger: RoundLedger) -> str:
    payload = json.dumps(
        [(e.rounds, e.kind, e.reason) for e in ledger.entries]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _cfg(n: int, backend: str) -> AMPCConfig:
    return AMPCConfig(n_input=n, backend=backend)


# ----------------------------------------------------------------------
# Workloads: name -> callable(backend) -> (output, rounds, digest).
# Outputs must be canonical (sorted dicts/lists) so == is bit-exact.
# ----------------------------------------------------------------------
def _run_sort(backend: str):
    rng = random.Random(101)
    values = [rng.randrange(100_000) for _ in range(500)]
    ledger = RoundLedger()
    out = ampc_sort(_cfg(500, backend), values, ledger=ledger)
    return out, ledger


def _run_reduce(backend: str):
    rng = random.Random(202)
    values = [rng.randrange(-1000, 1000) for _ in range(700)]
    ledger = RoundLedger()
    out = ampc_reduce(_cfg(700, backend), values, min, ledger=ledger)
    return out, ledger


def _run_broadcast(backend: str):
    ledger = RoundLedger()
    out = ampc_broadcast(_cfg(100, backend), {"pivot": 17}, 25, ledger=ledger)
    return out, ledger


def _run_listrank(backend: str):
    rng = random.Random(303)
    order = list(range(150))
    rng.shuffle(order)
    successor = {order[i]: order[i + 1] for i in range(len(order) - 1)}
    successor[order[-1]] = None
    ledger = RoundLedger()
    ranks = ampc_list_rank(_cfg(150, backend), successor, ledger=ledger, seed=7)
    return sorted(ranks.items()), ledger


def _run_euler(backend: str):
    vertices, edges = random_tree(60, seed=11)
    ledger = RoundLedger()
    rooted = ampc_root_forest(
        _cfg(60, backend), vertices, edges, ledger=ledger
    )
    out = {
        "parent": sorted(rooted.parent.items(), key=repr),
        "depth": sorted(rooted.depth.items()),
        "subtree": sorted(rooted.subtree_size.items()),
        "preorder": sorted(rooted.preorder.items()),
    }
    return out, ledger


def _run_connectivity(backend: str):
    # A three-tree forest (genuinely executed) plus a general graph
    # (charged per [4]) — both come back as vertex -> representative.
    forest_edges = []
    offset = 0
    for size, seed in ((20, 1), (15, 2), (10, 3)):
        _, tree_edges = random_tree(size, seed=seed)
        forest_edges.extend((u + offset, v + offset) for u, v in tree_edges)
        offset += size
    vertices = list(range(offset))
    ledger = RoundLedger()
    comp = ampc_forest_components(
        _cfg(offset, backend), vertices, forest_edges, ledger=ledger
    )
    graph = erdos_renyi(40, 0.08, seed=5)
    gcomp = ampc_graph_components(
        _cfg(40, backend),
        list(graph.vertices()),
        [(u, v) for u, v, _ in graph.edges()],
        ledger=ledger,
    )
    return (sorted(comp.items()), sorted(gcomp.items())), ledger


def _run_mst(backend: str):
    graph = erdos_renyi(48, 0.15, seed=13)
    edges = [(u, v, i) for i, (u, v, _) in enumerate(graph.edges())]
    ledger = RoundLedger()
    # m_input sizes the local budget off the real edge volume (edge
    # tuples are the sort records here).
    config = AMPCConfig(n_input=48, m_input=4 * len(edges), backend=backend)
    forest = ampc_minimum_spanning_forest(
        config, list(graph.vertices()), edges, ledger=ledger
    )
    return forest, ledger


WORKLOADS = {
    "sort": _run_sort,
    "reduce": _run_reduce,
    "broadcast": _run_broadcast,
    "listrank": _run_listrank,
    "euler": _run_euler,
    "connectivity": _run_connectivity,
    "mst": _run_mst,
}

_reference_cache: dict[str, tuple] = {}


def _observe(workload: str, backend: str) -> tuple:
    output, ledger = WORKLOADS[workload](backend)
    return (
        output,
        ledger.rounds,
        ledger.measured_rounds,
        ledger.charged_rounds,
        _digest(ledger),
        _structure_digest(ledger),
    )


def _reference(workload: str) -> tuple:
    if workload not in _reference_cache:
        _reference_cache[workload] = _observe(workload, REFERENCE)
    return _reference_cache[workload]


@pytest.mark.parametrize("backend", COLUMNAR_BACKENDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_columnar_backend_matches_serial_structure(
    workload, backend, equivalence_summary
):
    """The shm backend's columnar fast paths vs. the object reference.

    Outputs, ledger round counts, and round *structure* (rounds, kind,
    reason per entry) must be bit-identical; word/query accounting
    differs by design (array sizes vs. ``word_size`` recursion), which
    is exactly what the structure digest excludes.
    """
    (
        ref_out,
        ref_rounds,
        ref_measured,
        ref_charged,
        _,
        ref_structure,
    ) = _reference(workload)
    out, rounds, measured, charged, _, structure = _observe(workload, backend)

    identical = (
        out == ref_out
        and (rounds, measured, charged)
        == (ref_rounds, ref_measured, ref_charged)
        and structure == ref_structure
    )
    equivalence_summary.append(
        {
            "workload": workload,
            "backend": backend,
            "reference": REFERENCE,
            "rounds": rounds,
            "reference_rounds": ref_rounds,
            "trace_digest": structure,
            "reference_digest": ref_structure,
            "identical": identical,
        }
    )

    assert out == ref_out, f"{workload}: {backend} output diverged from serial"
    assert (rounds, measured, charged) == (
        ref_rounds,
        ref_measured,
        ref_charged,
    ), f"{workload}: {backend} ledger round counts diverged"
    assert structure == ref_structure, (
        f"{workload}: {backend} round structure diverged from serial"
    )


def test_serial_reference_is_deterministic():
    """The harness is meaningless if the reference itself drifts."""
    for workload in sorted(WORKLOADS):
        assert _observe(workload, REFERENCE) == _observe(workload, REFERENCE), (
            f"{workload}: serial reference not deterministic"
        )
