"""Metamorphic + approximation-ratio suite for the PR 10 scenarios.

The `/gomoryhu` and `/sparsestcut` products are proven the same way
the older query ops were: by properties that must hold on *every*
corpus instance, not by golden outputs.

* Gomory–Hu pairwise values are **symmetric**, agree with the
  independent `/stcut` oracle, are **relabel-invariant** (an
  isomorphic copy yields the matrix mapped through the isomorphism)
  and **scale-equivariant** under power-of-two weight scaling (the
  matrix scales exactly; the canonical tree keeps its shape).
* Every served tree edge with ``sides=true`` records a **real cut**
  of exactly its weight (checked against ``Graph.cut_weight``).
* The served sparsest cut is **self-consistent** (its side really has
  the reported sparsity) and within the ``sqrt(log n)``-style ratio
  envelope of the exact enumeration wherever the exact answer is
  computable — on most corpus instances the ratio is exactly 1.

Each check appends a record to the ``scenario_summary`` fixture; with
``SCENARIO_SUMMARY`` set the records land in CI's scenario artifact.
"""

from __future__ import annotations

import math

import pytest

from cutcorpus import (
    connected_corpus,
    disconnected_corpus,
    relabel,
    scale,
)
from repro.analysis.sparsest import (
    approx_sparsest_cut,
    cut_sparsity,
    exact_sparsest_cut,
    sparsest_kernel,
)
from repro.graph import Graph, lift_cut
from repro.service import CutService
from repro.workloads import clustered_community

VOLATILE = {"elapsed_s", "cached", "fingerprint", "graph"}

CORPUS = connected_corpus()
NAMES = [name for name, _ in CORPUS]
SMALL = [name for name, g in CORPUS if g.num_vertices <= 16]

#: the satellite's ratio envelope: sqrt(log2 n) * C with C = 2 —
#: generous against the O(sqrt(log n)) guarantee of the construction
#: the sweep approximates, and far above what the sweep actually
#: produces on these corpora (ratio 1.0 almost everywhere)
def ratio_bound(n: int) -> float:
    return 2.0 * math.sqrt(math.log2(max(2, n)))


def _comparable(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in VOLATILE}


def _graph(name: str) -> Graph:
    return dict(CORPUS)[name]


def _pair_values(payload: dict) -> dict:
    """The matrix as a ``{(u, v): value}`` dict (hashable-key view)."""
    vs = payload["vertices"]
    out = {}
    for i, u in enumerate(vs):
        for j, v in enumerate(vs):
            if i < j and payload["matrix"][i][j] is not None:
                out[(u, v)] = payload["matrix"][i][j]
    return out


# ----------------------------------------------------------------------
# Gomory–Hu: symmetry + agreement with the independent stcut oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", NAMES)
def test_gomoryhu_symmetric_and_matches_stcut(name, scenario_summary):
    graph = _graph(name)
    with CutService() as svc:
        svc.register(name, graph)
        payload = svc.gomoryhu(name)
        vs = payload["vertices"]
        n = len(vs)
        assert payload["connected"] is True
        assert sorted(vs, key=repr) == sorted(graph.vertices(), key=repr)
        checked = 0
        for i in range(n):
            assert payload["matrix"][i][i] is None
            for j in range(i + 1, n):
                value = payload["matrix"][i][j]
                assert value == payload["matrix"][j][i]
                assert value > 0
                # bottleneck edge on the canonical tree has the pair's
                # min-cut value as an upper bound witness
                eidx = payload["bottleneck"][i][j]
                assert payload["tree"][eidx]["weight"] == value
        # the independent per-pair oracle agrees (spot-check on large n)
        step = 1 if n <= 12 else 3
        for i in range(0, n, step):
            for j in range(i + 1, n, step):
                st = svc.stcut(name, vs[i], vs[j])["weight"]
                assert payload["matrix"][i][j] == st
                checked += 1
        assert len(payload["tree"]) == n - 1
    scenario_summary.append(
        {"check": "gomoryhu_matrix", "instance": name, "pairs": checked,
         "ok": True}
    )


@pytest.mark.parametrize("name", NAMES)
def test_gomoryhu_relabel_invariant(name):
    graph = _graph(name)
    copy, phi = relabel(graph)
    with CutService() as svc:
        svc.register("orig", graph)
        svc.register("copy", copy)
        a = _pair_values(svc.gomoryhu("orig"))
        b = _pair_values(svc.gomoryhu("copy"))
    mapped = {}
    for (u, v), value in a.items():
        pu, pv = phi[u], phi[v]
        mapped[(pu, pv) if repr(pu) <= repr(pv) else (pv, pu)] = value
    normalized = {
        (u, v) if repr(u) <= repr(v) else (v, u): value
        for (u, v), value in b.items()
    }
    assert mapped == normalized


@pytest.mark.parametrize("name", NAMES)
def test_gomoryhu_scale_equivariant(name):
    graph = _graph(name)
    factor = 4.0  # power of two: exact in binary floating point
    with CutService() as svc:
        svc.register("orig", graph)
        svc.register("scaled", scale(graph, factor))
        a = svc.gomoryhu("orig")
        b = svc.gomoryhu("scaled")
    assert b["vertices"] == a["vertices"]
    n = len(a["vertices"])
    for i in range(n):
        for j in range(n):
            if a["matrix"][i][j] is None:
                assert b["matrix"][i][j] is None
            else:
                assert b["matrix"][i][j] == a["matrix"][i][j] * factor
    # the canonical tree keeps its shape: same edges in the same order,
    # weights scaled; bottleneck indices identical
    assert [(e["u"], e["v"]) for e in b["tree"]] == [
        (e["u"], e["v"]) for e in a["tree"]
    ]
    assert [e["weight"] for e in b["tree"]] == [
        e["weight"] * factor for e in a["tree"]
    ]
    assert b["bottleneck"] == a["bottleneck"]


@pytest.mark.parametrize("name", NAMES)
def test_gomoryhu_tree_sides_are_real_cuts(name, scenario_summary):
    graph = _graph(name)
    with CutService() as svc:
        svc.register(name, graph)
        payload = svc.gomoryhu(name, sides=True)
    for rec in payload["tree"]:
        side = frozenset(rec["side"])
        assert rec["u"] in side and rec["v"] not in side
        assert graph.cut_weight(side) == rec["weight"], rec
    scenario_summary.append(
        {"check": "gomoryhu_sides", "instance": name,
         "edges": len(payload["tree"]), "ok": True}
    )


@pytest.mark.parametrize("name", [n for n, _ in disconnected_corpus()])
def test_gomoryhu_disconnected_serves_null_pairs(name):
    graph = dict(disconnected_corpus())[name]
    with CutService() as svc:
        svc.register(name, graph)
        payload = svc.gomoryhu(name)
    assert payload["connected"] is False
    assert payload["components"] == len(graph.components())
    vs = payload["vertices"]
    index = {v: i for i, v in enumerate(vs)}
    comp_of = {}
    for cid, comp in enumerate(graph.components()):
        for v in comp:
            comp_of[v] = cid
    for i, u in enumerate(vs):
        for j, v in enumerate(vs):
            if i == j:
                continue
            entry = payload["matrix"][i][j]
            if comp_of[u] == comp_of[v]:
                assert entry is not None and entry > 0
                assert payload["bottleneck"][i][j] is not None
            else:
                assert entry is None
                assert payload["bottleneck"][i][j] is None


def test_gomoryhu_cache_and_mutation():
    graph = _graph("triangle")
    with CutService() as svc:
        svc.register("g", graph)
        a = svc.gomoryhu("g")
        b = svc.gomoryhu("g")
        assert a["cached"] is False and b["cached"] is True
        assert _comparable(a) == _comparable(b)
        svc.mutate("g", reweights=[[0, 1, 8.0]])
        c = svc.gomoryhu("g")
        assert c["cached"] is False
        assert c["fingerprint"] != a["fingerprint"]
        assert c["matrix"] != a["matrix"]


# ----------------------------------------------------------------------
# Sparsest cut: ratio envelope + served self-consistency
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", SMALL)
def test_sparsest_ratio_within_bound(name, scenario_summary):
    graph = _graph(name)
    exact = exact_sparsest_cut(graph)
    approx = approx_sparsest_cut(graph, seed=0, trials=2)
    assert approx.sparsity >= exact.sparsity - 1e-12
    if exact.sparsity == 0.0:
        assert approx.sparsity == 0.0
        ratio = 1.0
    else:
        ratio = approx.sparsity / exact.sparsity
    bound = ratio_bound(graph.num_vertices)
    assert ratio <= bound, (name, ratio, bound)
    scenario_summary.append(
        {"check": "sparsest_ratio", "instance": name, "ratio": ratio,
         "bound": bound, "ok": ratio <= bound}
    )


@pytest.mark.parametrize("name", SMALL)
def test_sparsest_served_is_exact_and_consistent(name):
    graph = _graph(name)
    exact = exact_sparsest_cut(graph)
    with CutService() as svc:
        svc.register(name, graph)
        payload = svc.sparsestcut(name)
        assert payload["exact"] is True
        assert payload["sparsity"] == exact.sparsity
        side = frozenset(payload["side"])
        assert cut_sparsity(graph, side) == payload["sparsity"]
        again = svc.sparsestcut(name)
        assert again["cached"] is True
        assert _comparable(again) == _comparable(payload)


@pytest.mark.parametrize("name", [n for n, g in CORPUS
                                  if g.num_vertices > 16])
def test_sparsest_served_large_instances(name):
    graph = _graph(name)
    with CutService() as svc:
        svc.register(name, graph)
        payload = svc.sparsestcut(name, trials=2)
        side = frozenset(payload["side"])
        assert cut_sparsity(graph, side) == payload["sparsity"]
        # singleton sweep is a true upper bound the sweep includes
        best_singleton = min(
            cut_sparsity(graph, frozenset([v])) for v in graph.vertices()
        )
        assert payload["sparsity"] <= best_singleton + 1e-12


def test_sparsest_kernel_preserves_optimum(scenario_summary):
    # the clustered regime the kernel is built for: heavy communities,
    # light ring — contracting provably-uncut heavy edges collapses
    # whole clusters without moving the optimum.  intra_weight must
    # clear the strict w > upper * N^2/4 threshold for contraction.
    inst = clustered_community(16, seed=7, intra_weight=8.0)
    graph = inst.graph
    upper = approx_sparsest_cut(graph, seed=0, trials=1).sparsity
    kernel, ksizes, blocks = sparsest_kernel(graph, upper=upper)
    assert kernel.num_vertices < graph.num_vertices
    full = exact_sparsest_cut(graph)
    folded = exact_sparsest_cut(kernel, sizes=ksizes)
    assert folded.sparsity == full.sparsity
    lifted = lift_cut(blocks, folded.side)
    assert cut_sparsity(graph, lifted) == full.sparsity
    scenario_summary.append(
        {"check": "sparsest_kernel", "instance": "viecut_cc16",
         "kernel_vertices": kernel.num_vertices,
         "original_vertices": graph.num_vertices, "ok": True}
    )


def test_sparsest_served_kernel_matches_plain():
    inst = clustered_community(16, seed=7, intra_weight=8.0)
    with CutService() as svc:
        svc.register("cc", inst.graph)
        plain = svc.sparsestcut("cc")
        kerneled = svc.sparsestcut("cc", kernel=True)
        assert kerneled["sparsity"] == plain["sparsity"]
        stats = kerneled["sparsest_kernel"]
        assert stats["kernel_vertices"] < stats["original_vertices"]


def test_sparsest_rejects_trivial_graphs():
    with CutService() as svc:
        svc.register("one", Graph(vertices=[0]))
        with pytest.raises(ValueError, match="need n >= 2"):
            svc.sparsestcut("one")
        with pytest.raises(ValueError, match="need n >= 2"):
            svc.gomoryhu("one")
