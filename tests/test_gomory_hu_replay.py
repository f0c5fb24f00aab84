"""Replayed Gomory–Hu max-flows against cold builds.

A Dinic run whose augmenting paths never use a row repeats bit for bit
when that row's weight changes without crossing ``_EPS``
(:mod:`repro.flow.dinic`, "Replay").  ``gomory_hu_tree(g, prior=...)``
and ``repair_gomory_hu(..., prior=...)`` replay such flows from an
earlier build's records.  This file checks that:

* a replayed build equals a cold build of the same rows, edge for edge
  (child, parent, weight, side), over random reinforce and reweight
  sequences with non-dyadic weights from 1e-13 to 1e6, some of which
  cross ``_EPS``;
* a repair with a prior equals the same repair without one;
* removed rows, new rows, new vertices, another vertex order, another
  engine and a weight crossing ``_EPS`` replay nothing;
* a one-row change runs fewer than ``n - 1`` max-flows;
* the oracle counts replays in ``replayed_flows`` and on its
  ``oracle.build`` and ``oracle.repair`` spans.
"""

import random

import pytest

from cutcorpus import connected_corpus
from repro.flow import DinicSolver, gomory_hu_tree, repair_gomory_hu
from repro.graph import Graph
from repro.obs.tracing import Tracer
from repro.service.oracle import CutOracle
from repro.workloads import clustered_community, planted_cut
from test_dinic_reference import random_float_graph

GRAPHS = [
    (name, g)
    for name, g in connected_corpus()
    + [(f"float{i}", random_float_graph(i)) for i in range(24)]
    if g.num_vertices >= 3 and len(g.components()) == 1
]


def _float_weight(rng: random.Random) -> float:
    """A non-dyadic weight; about 2% fall under ``_EPS`` (1e-12)."""
    if rng.random() < 0.3:
        return 10.0 ** rng.uniform(-13.0, 6.0)
    return rng.uniform(0.05, 3.0) / 3.0


def _mutate(g: Graph, rng: random.Random, k: int) -> list:
    """Reinforce or reweight ``k`` rows in place; the net changes as
    ``(u, v, old, new)``."""
    changed = {}
    for u, v, _ in rng.sample(list(g.edges()), min(k, g.num_edges)):
        old = g.weight(u, v)
        if rng.random() < 0.5:
            g.add_edge(u, v, _float_weight(rng))
        else:
            g.set_edge_weight(u, v, _float_weight(rng))
        base = changed.get((u, v), (old,))[0]
        changed[(u, v)] = (base, g.weight(u, v))
    return [(u, v, old, new) for (u, v), (old, new) in changed.items()]


@pytest.fixture
def count_flows(monkeypatch):
    """Counts ``DinicSolver.max_flow`` calls."""
    calls = []
    real = DinicSolver.max_flow

    def counted(self, s, t):
        calls.append((s, t))
        return real(self, s, t)

    monkeypatch.setattr(DinicSolver, "max_flow", counted)
    return calls


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_replayed_builds_and_repairs_equal_cold_ones(name, graph):
    replayed = 0
    for seed in range(2):
        rng = random.Random(f"{name}/{seed}")
        g = graph.copy()
        basis = tree = gomory_hu_tree(g)
        for _ in range(6):
            changed = _mutate(g, rng, rng.choice((1, 1, 2, 3)))
            warm = gomory_hu_tree(g, prior=basis)
            assert warm.edges == gomory_hu_tree(g.copy()).edges
            replayed += warm.replayed
            cold_repair = repair_gomory_hu(tree, g, changed)
            warm_repair = repair_gomory_hu(tree, g, changed, prior=basis)
            assert (warm_repair is None) == (cold_repair is None)
            if warm_repair is not None:
                assert warm_repair[0].edges == cold_repair[0].edges
                assert warm_repair[1] == cold_repair[1]
                replayed += warm_repair[0].replayed
            # chain replays through replayed trees now and then
            if rng.random() < 0.4:
                basis = warm
            tree = warm if warm_repair is None else warm_repair[0]
    # on a cycle every flow's two paths use every row
    if g.num_vertices >= 6 and not name.startswith("cycle"):
        assert replayed > 0


def test_a_skipped_row_leaves_every_flow_unchanged():
    """The Dinic claim itself: reweight one row outside a flow's
    support and the flow repeats bit for bit."""
    rng = random.Random(5)
    for i in range(24):
        g = random_float_graph(i)
        vs = g.vertices()
        rows = list(g.edges())
        if len(vs) < 3 or not rows:
            continue
        base = DinicSolver(g)
        for _ in range(6):
            s, t = rng.sample(vs, 2)
            res = base.max_flow(s, t)
            support = {a >> 1 for a in res.support.tolist()}
            assert support <= set(range(len(rows)))
            outside = [r for r in range(len(rows)) if r not in support]
            if not outside:
                continue
            u, v, w = rows[rng.choice(outside)]
            h = g.copy()
            new = _float_weight(rng)
            if (new > 1e-12) != (w > 1e-12):
                continue
            h.set_edge_weight(u, v, new)
            again = DinicSolver(h).max_flow(s, t)
            assert again.value == res.value
            assert again.source_side == res.source_side
            assert set(again.support.tolist()) == set(res.support.tolist())


def _one_row_change(g: Graph) -> Graph:
    """A copy with its first row halved."""
    h = g.copy()
    u, v, w = next(iter(h.edges()))
    h.set_edge_weight(u, v, w / 2)
    return h


class TestFallsBackToAFullBuild:
    def _assert_cold(self, g: Graph, prior, count_flows):
        count_flows.clear()
        warm = gomory_hu_tree(g, prior=prior)
        assert warm.replayed == 0
        assert len(count_flows) == g.num_vertices - 1
        assert warm.edges == gomory_hu_tree(g.copy()).edges

    def test_removed_row(self, count_flows):
        g = planted_cut(24, seed=2).graph
        prior = gomory_hu_tree(g)
        h = g.copy()
        u, v, _ = list(h.edges())[-1]
        h.remove_edge(u, v)
        assert len(h.components()) == 1
        self._assert_cold(h, prior, count_flows)

    def test_new_row(self, count_flows):
        g = planted_cut(24, seed=2).graph
        prior = gomory_hu_tree(g)
        h = g.copy()
        u = g.vertices()[0]
        v = next(x for x in g.vertices()[1:] if not g.has_edge(u, x))
        h.add_edge(u, v, 1.0)
        self._assert_cold(h, prior, count_flows)

    def test_new_vertex(self, count_flows):
        g = planted_cut(24, seed=2).graph
        prior = gomory_hu_tree(g)
        h = g.copy()
        h.add_edge(g.vertices()[0], "new", 1.0)
        self._assert_cold(h, prior, count_flows)

    def test_other_vertex_order(self, count_flows):
        g = planted_cut(24, seed=2).graph
        prior = gomory_hu_tree(g)
        h = Graph(vertices=reversed(g.vertices()), edges=g.edges())
        self._assert_cold(h, prior, count_flows)

    def test_weight_crossing_eps(self, count_flows):
        g = planted_cut(24, seed=2).graph
        prior = gomory_hu_tree(g)
        h = g.copy()
        u, v, _ = next(iter(h.edges()))
        h.set_edge_weight(u, v, 1e-13)
        self._assert_cold(h, prior, count_flows)

    def test_push_relabel_prior(self, count_flows):
        g = planted_cut(24, seed=2).graph
        prior = gomory_hu_tree(g, engine="push_relabel")
        self._assert_cold(g, prior, count_flows)


@pytest.mark.parametrize("make", [
    lambda: planted_cut(64, seed=3).graph,
    lambda: clustered_community(64, intra_p=24 / 64, seed=3).graph,
], ids=["planted64", "clustered64"])
def test_one_row_change_runs_fewer_flows(make, count_flows):
    g = make()
    prior = gomory_hu_tree(g)
    h = _one_row_change(g)
    count_flows.clear()
    warm = gomory_hu_tree(h, prior=prior)
    n = g.num_vertices
    assert len(count_flows) < n - 1
    assert len(count_flows) + warm.replayed == n - 1
    assert warm.edges == gomory_hu_tree(h.copy()).edges
    # no change at all replays every flow
    count_flows.clear()
    again = gomory_hu_tree(h, prior=warm)
    assert (len(count_flows), again.replayed) == (0, n - 1)
    assert again.edges == warm.edges


def test_oracle_counts_replayed_flows_on_its_spans():
    g = planted_cut(64, seed=3).graph
    tracer = Tracer()
    oracle = CutOracle(g, tracer=tracer)
    oracle.st_min_cut(0, 40)
    rows = list(g.edges())
    for u, v, w in rows[:3]:
        h = g.copy()
        h.set_edge_weight(u, v, w * 0.5)
        assert oracle.apply_delta(
            h, [(u, v, w, w * 0.5)], has_new_vertices=False
        ) == "repair-pending"
        oracle.st_min_cut(0, 40)  # settles: a repair or a fallback
        h2 = h.copy()
        h2.set_edge_weight(u, v, w * 0.75)
        oracle.apply_delta(
            h2, [(u, v, w * 0.5, w * 0.75)], has_new_vertices=False
        )
        assert oracle.all_pairs().edges == gomory_hu_tree(h2.copy()).edges
        g = h2
    spans = [s for s in tracer.snapshot()
             if s["name"] in ("oracle.build", "oracle.repair")]
    assert {s["name"] for s in spans} == {"oracle.build", "oracle.repair"}
    assert all("replayed_flows" in s["attrs"] for s in spans)
    total = sum(s["attrs"]["replayed_flows"] for s in spans)
    assert oracle.replayed_flows == total > 0
    assert oracle.stats()["replayed_flows"] == total
