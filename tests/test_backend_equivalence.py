"""Differential harness: the library primitives vs. their object reference.

Each workload below runs one AMPC primitive (sort, reduce, broadcast,
list rank, Euler-tour rooting, connectivity, MST) on seeded input, once
as the library runs it — columnar round specs wherever the input fits
the columnar contract — and once with every primitive forced onto its
object reference (:func:`ampc_reference.object_reference`), and demands
**bit-identical**

* outputs (whatever the workload returns, compared with ``==`` on a
  canonical representation),
* ledger round counts (measured and charged), and
* round structure — a SHA-256 over ``(rounds, kind, reason)`` per
  ledger entry, so the columnar path cannot reorder or re-label rounds
  without failing.

Word/query accounting is array-sized on the columnar path rather than
object-sized (documented in ``repro.ampc.columnar``), so the full trace
digest legitimately differs and only the structure digest is compared.
Only the primitives are compared: the core min-cut and k-cut solvers
charge their rounds by lemma and execute none.

Every comparison also lands in the session's ``equivalence_summary``
fixture; with ``EQUIVALENCE_SUMMARY=<path>`` the records are written as
a JSON artifact (the CI workflow uploads it).
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from ampc_reference import object_reference
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

def _digest(ledger: RoundLedger) -> str:
    payload = json.dumps(export_trace(ledger), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def _structure_digest(ledger: RoundLedger) -> str:
    payload = json.dumps(
        [(e.rounds, e.kind, e.reason) for e in ledger.entries]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _cfg(n: int) -> AMPCConfig:
    return AMPCConfig(n_input=n)


# ----------------------------------------------------------------------
# Workloads: name -> callable() -> (output, ledger).
# Outputs must be canonical (sorted dicts/lists) so == is bit-exact.
# ----------------------------------------------------------------------
def _run_sort():
    rng = random.Random(101)
    values = [rng.randrange(100_000) for _ in range(500)]
    ledger = RoundLedger()
    out = ampc_sort(_cfg(500), values, ledger=ledger)
    return out, ledger


def _run_reduce():
    rng = random.Random(202)
    values = [rng.randrange(-1000, 1000) for _ in range(700)]
    ledger = RoundLedger()
    out = ampc_reduce(_cfg(700), values, min, ledger=ledger)
    return out, ledger


def _run_broadcast():
    ledger = RoundLedger()
    out = ampc_broadcast(_cfg(100), {"pivot": 17}, 25, ledger=ledger)
    return out, ledger


def _run_listrank():
    rng = random.Random(303)
    order = list(range(150))
    rng.shuffle(order)
    successor = {order[i]: order[i + 1] for i in range(len(order) - 1)}
    successor[order[-1]] = None
    ledger = RoundLedger()
    ranks = ampc_list_rank(_cfg(150), successor, ledger=ledger, seed=7)
    return sorted(ranks.items()), ledger


def _run_euler():
    vertices, edges = random_tree(60, seed=11)
    ledger = RoundLedger()
    rooted = ampc_root_forest(
        _cfg(60), vertices, edges, ledger=ledger
    )
    out = {
        "parent": sorted(rooted.parent.items(), key=repr),
        "depth": sorted(rooted.depth.items()),
        "subtree": sorted(rooted.subtree_size.items()),
        "preorder": sorted(rooted.preorder.items()),
    }
    return out, ledger


def _run_connectivity():
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
        _cfg(offset), vertices, forest_edges, ledger=ledger
    )
    graph = erdos_renyi(40, 0.08, seed=5)
    gcomp = ampc_graph_components(
        _cfg(40),
        list(graph.vertices()),
        [(u, v) for u, v, _ in graph.edges()],
        ledger=ledger,
    )
    return (sorted(comp.items()), sorted(gcomp.items())), ledger


def _run_mst():
    graph = erdos_renyi(48, 0.15, seed=13)
    edges = [(u, v, i) for i, (u, v, _) in enumerate(graph.edges())]
    ledger = RoundLedger()
    # m_input sizes the local budget off the real edge volume (edge
    # tuples are the sort records here).
    config = AMPCConfig(n_input=48, m_input=4 * len(edges))
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


def _observe(workload: str) -> tuple:
    output, ledger = WORKLOADS[workload]()
    return (
        output,
        ledger.rounds,
        ledger.measured_rounds,
        ledger.charged_rounds,
        _digest(ledger),
        _structure_digest(ledger),
    )


def _observe_reference(workload: str) -> tuple:
    with object_reference():
        return _observe(workload)


def _reference(workload: str) -> tuple:
    if workload not in _reference_cache:
        _reference_cache[workload] = _observe_reference(workload)
    return _reference_cache[workload]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_library_matches_object_reference(workload, equivalence_summary):
    """The library's columnar fast paths vs. the object reference.

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
    out, rounds, measured, charged, _, structure = _observe(workload)

    identical = (
        out == ref_out
        and (rounds, measured, charged)
        == (ref_rounds, ref_measured, ref_charged)
        and structure == ref_structure
    )
    equivalence_summary.append(
        {
            "workload": workload,
            "rounds": rounds,
            "reference_rounds": ref_rounds,
            "trace_digest": structure,
            "reference_digest": ref_structure,
            "identical": identical,
        }
    )

    assert out == ref_out, f"{workload}: output diverged from the object reference"
    assert (rounds, measured, charged) == (
        ref_rounds,
        ref_measured,
        ref_charged,
    ), f"{workload}: ledger round counts diverged"
    assert structure == ref_structure, (
        f"{workload}: round structure diverged from the object reference"
    )


def test_serial_reference_is_deterministic():
    """The harness is meaningless if the reference itself drifts.

    The reference runs every machine program one by one in index order.
    """
    for workload in sorted(WORKLOADS):
        assert _observe_reference(workload) == _observe_reference(workload), (
            f"{workload}: object reference not deterministic"
        )
