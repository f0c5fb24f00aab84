"""Tests for Algorithm 1 — AMPC-MinCut (Theorem 1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutcorpus import relabeled_clustered
from repro.baselines import exact_min_cut_weight
from repro.core import ampc_min_cut, ampc_min_cut_boosted
from repro.core import keys as keys_module
from repro.core import mincut as mincut_module
from repro.graph import Graph
from repro.workloads import (
    barbell,
    cycle,
    erdos_renyi,
    grid,
    planted_cut,
    wheel,
)


class TestValidity:
    def test_returns_valid_cut(self):
        g = planted_cut(48, seed=1).graph
        res = ampc_min_cut(g, seed=1)
        res.cut.validate(g)
        assert 0 < len(res.cut.side) < g.num_vertices

    def test_rejects_disconnected(self):
        g = Graph(vertices=[0, 1, 2, 3], edges=[(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            ampc_min_cut(g)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            ampc_min_cut(Graph(vertices=[0]))

    def test_never_below_exact(self):
        for seed in range(4):
            g = erdos_renyi(24, 0.3, weighted=True, seed=seed)
            res = ampc_min_cut(g, seed=seed)
            assert res.weight >= exact_min_cut_weight(g) - 1e-9

    @pytest.mark.parametrize("max_copies", [1, 0])
    def test_rejects_fewer_than_two_copies(self, max_copies):
        """A cap below 2 used to run 2 copies per level anyway."""
        with pytest.raises(ValueError, match="max_copies"):
            ampc_min_cut(planted_cut(32, seed=1).graph, max_copies=max_copies)

    @pytest.mark.parametrize("max_copies", [1, 0])
    def test_boosted_rejects_fewer_than_two_copies_on_a_solved_kernel(
        self, max_copies
    ):
        """A kernel that solves the instance used to answer before the
        cap was checked, so ``max_copies=0`` returned weight 0.0."""
        g = Graph(edges=[(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match="max_copies must be >= 2"):
            ampc_min_cut_boosted(g, preprocess="safe", max_copies=max_copies)
        assert ampc_min_cut_boosted(
            g, preprocess="safe", max_copies=2
        ).weight == 0.0

    def test_rejects_base_size_zero_up_front(self, monkeypatch):
        """``base_size=0`` used to fail deep in Algorithm 3 ("smallest
        singleton cut needs n >= 2"); now it fails before any copy."""
        monkeypatch.setattr(mincut_module, "draw_contraction_keys", None)
        with pytest.raises(ValueError, match="base_size"):
            ampc_min_cut(planted_cut(32, seed=1).graph, base_size=0)

    def test_base_size_one_still_runs(self):
        g = planted_cut(32, seed=1).graph
        res = ampc_min_cut(g, seed=1, base_size=1, max_copies=2)
        res.cut.validate(g)
        assert res.base_solves == 0

    def test_two_vertex_graph(self):
        g = Graph(edges=[(0, 1, 3.5)])
        res = ampc_min_cut(g)
        assert res.weight == 3.5


class TestOneKruskalPerCopy:
    def test_contraction_and_step_1_share_the_mst(self, monkeypatch):
        """Line 6's contraction and Algorithm 3's step 1 read one keyed
        MST: a trial builds one union–find per copy, and no copy's keys
        build the ``(u, v) -> key`` dict."""
        built, drawn = [], []
        dsu = keys_module.IndexDSU
        monkeypatch.setattr(
            keys_module, "IndexDSU", lambda n: built.append(n) or dsu(n)
        )
        draw = mincut_module.draw_contraction_keys

        def recording(graph, **kw):
            drawn.append(draw(graph, **kw))
            return drawn[-1]

        monkeypatch.setattr(mincut_module, "draw_contraction_keys", recording)
        result = ampc_min_cut(relabeled_clustered(1, 4), seed=2)
        assert len(drawn) == result.singleton_runs > 10
        assert built == [len(keys.vertices) for keys in drawn]
        assert not any("key" in vars(keys) for keys in drawn)


class TestApproximation:
    def test_within_bound_on_planted(self):
        # The (2+eps) guarantee is w.h.p.: boost over trials as the
        # paper does (a single run may miss on an unlucky key draw).
        for seed in range(5):
            inst = planted_cut(64, seed=seed)
            exact = exact_min_cut_weight(inst.graph)
            res = ampc_min_cut_boosted(inst.graph, trials=4, seed=seed)
            assert res.weight <= (2 + 0.5) * exact + 1e-9

    def test_cycle_exact(self):
        g = cycle(32)
        res = ampc_min_cut(g, seed=3)
        assert res.weight <= (2 + 0.5) * 2.0

    def test_barbell_finds_light_bridge(self):
        inst = barbell(16, bridge_weight=0.25)
        res = ampc_min_cut(inst.graph, seed=4)
        assert res.weight <= (2 + 0.5) * 0.25 + 1e-9

    def test_boosted_usually_exact_on_planted(self):
        inst = planted_cut(48, seed=7)
        exact = exact_min_cut_weight(inst.graph)
        res = ampc_min_cut_boosted(inst.graph, trials=4, seed=7)
        assert res.weight <= (2 + 0.5) * exact + 1e-9

    @settings(max_examples=8, deadline=None)
    @given(st.integers(6, 30), st.integers(0, 100))
    def test_property_2plus_eps_on_random(self, n, seed):
        g = erdos_renyi(n, 0.4, weighted=True, seed=seed)
        exact = exact_min_cut_weight(g)
        res = ampc_min_cut_boosted(g, trials=3, seed=seed)
        assert res.weight <= (2 + 0.5) * exact + 1e-9


class TestRounds:
    def test_rounds_within_theorem1_envelope(self):
        from repro.analysis.theory import loglog_rounds_envelope

        for n in [32, 64, 128, 256]:
            g = planted_cut(n, seed=n).graph
            res = ampc_min_cut(g, seed=n, max_copies=2)
            assert res.ledger.rounds <= loglog_rounds_envelope(n, 0.5)

    def test_rounds_grow_sublogarithmically(self):
        r_small = ampc_min_cut(
            planted_cut(32, seed=1).graph, seed=1, max_copies=2
        ).ledger.rounds
        r_big = ampc_min_cut(
            planted_cut(512, seed=1).graph, seed=1, max_copies=2
        ).ledger.rounds
        # n grew 16x (log factor 16/5 > 3); rounds must grow far slower
        assert r_big <= r_small * 2.5

    def test_parallel_copies_do_not_multiply_rounds(self):
        g = planted_cut(64, seed=2).graph
        r2 = ampc_min_cut(g, seed=2, max_copies=2).ledger.rounds
        r3 = ampc_min_cut(g, seed=2, max_copies=3).ledger.rounds
        # copies run in parallel: rounds should be (nearly) unaffected
        assert r3 <= r2 * 1.3

    def test_counters_populated(self):
        res = ampc_min_cut(planted_cut(64, seed=3).graph, seed=3)
        assert res.base_solves >= 1
        assert res.singleton_runs >= 1
        assert res.schedule.depth >= 1
