"""Tests for Algorithm 3 — SmallestSingletonCut (Theorem 3)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ampc import AMPCConfig, RoundLedger
from repro.core import (
    draw_contraction_keys,
    smallest_singleton_cut,
    smallest_singleton_cut_value,
    verify_against_replay,
)
from repro.graph import Graph
from repro.workloads import (
    barbell,
    cycle,
    erdos_renyi,
    grid,
    planted_cut,
    wheel,
)


class TestDifferentialExactness:
    """The headline guarantee: Algorithm 3 == naive replay, always."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_unweighted(self, seed):
        g = erdos_renyi(random.Random(seed).randint(5, 28), 0.3, seed=seed)
        fast, slow = verify_against_replay(g, seed=seed * 3 + 1)
        assert abs(fast - slow) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_random_weighted(self, seed):
        g = erdos_renyi(
            random.Random(100 + seed).randint(5, 24), 0.35, weighted=True, seed=seed
        )
        fast, slow = verify_against_replay(g, seed=seed * 7 + 2)
        assert abs(fast - slow) < 1e-9

    @pytest.mark.parametrize(
        "g",
        [cycle(13), wheel(10), grid(3, 5), barbell(10).graph, planted_cut(20).graph],
        ids=["cycle", "wheel", "grid", "barbell", "planted"],
    )
    def test_structured_graphs(self, g):
        for seed in range(4):
            fast, slow = verify_against_replay(g, seed=seed)
            assert abs(fast - slow) < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 22), st.integers(0, 10_000))
    def test_property_exactness(self, n, seed):
        g = erdos_renyi(n, 0.35, weighted=bool(seed % 2), seed=seed % 97)
        fast, slow = verify_against_replay(g, seed=seed)
        assert abs(fast - slow) < 1e-9


class TestResultContract:
    def test_witness_cut_weight_matches(self):
        g = planted_cut(40, seed=1).graph
        res = smallest_singleton_cut(g, seed=1)
        res.cut.validate(g)
        assert abs(res.cut.weight - res.weight) < 1e-9

    def test_witness_is_proper_subset(self):
        g = cycle(15)
        res = smallest_singleton_cut(g, seed=2)
        assert 0 < len(res.cut.side) < g.num_vertices

    def test_rejects_disconnected(self):
        g = Graph(vertices=[0, 1, 2, 3], edges=[(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            smallest_singleton_cut(g)

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            smallest_singleton_cut(Graph(vertices=[0]))

    def test_value_wrapper(self):
        g = cycle(9)
        assert smallest_singleton_cut_value(g, seed=3) == 2.0

    def test_deterministic_given_keys(self):
        g = erdos_renyi(18, 0.3, seed=4)
        keys = draw_contraction_keys(g, seed=4)
        a = smallest_singleton_cut(g, keys)
        b = smallest_singleton_cut(g, keys)
        assert a.weight == b.weight
        assert a.cut.side == b.cut.side


class TestRoundAccounting:
    def test_rounds_constant_in_n(self):
        rounds = []
        for n in [16, 64, 128]:
            g = planted_cut(n, seed=n).graph
            led = RoundLedger()
            smallest_singleton_cut(g, ledger=led, seed=n)
            rounds.append(led.rounds)
        assert len(set(rounds)) == 1  # Theorem 3: O(1/eps), not O(f(n))

    def test_rounds_scale_with_inverse_eps(self):
        g = planted_cut(32, seed=5).graph
        r = {}
        for eps in (0.5, 0.25):
            led = RoundLedger()
            cfg = AMPCConfig(n_input=g.num_vertices, eps=eps)
            smallest_singleton_cut(g, config=cfg, ledger=led, seed=5)
            r[eps] = led.rounds
        assert r[0.25] > r[0.5]

    def test_ledger_cites_all_steps(self):
        g = cycle(16)
        led = RoundLedger()
        smallest_singleton_cut(g, ledger=led, seed=6)
        cited = " ".join(led.citations())
        for ref in ["line 1", "Lemma 3", "Lemma 11", "Lemma 13", "Lemma 14"]:
            assert ref in cited, f"missing citation {ref}"

    def test_total_space_within_envelope(self):
        from repro.analysis.theory import total_space_envelope

        g = planted_cut(64, seed=7).graph
        led = RoundLedger()
        smallest_singleton_cut(g, ledger=led, seed=7)
        assert led.total_peak <= total_space_envelope(
            g.num_vertices, g.num_edges
        )


class TestSimulatorExecution:
    def test_simulator_mode_matches_charged_mode(self):
        g = planted_cut(48, seed=11).graph
        keys = draw_contraction_keys(g, seed=11)
        charged = smallest_singleton_cut(g, keys)
        led = RoundLedger()
        measured = smallest_singleton_cut(
            g, keys, ledger=led, execute_on_simulator=True
        )
        assert abs(charged.weight - measured.weight) < 1e-9
        assert charged.cut.side == measured.cut.side

    def test_simulator_mode_measures_real_rounds(self):
        g = cycle(24)
        keys = draw_contraction_keys(g, seed=12)
        led = RoundLedger()
        smallest_singleton_cut(g, keys, ledger=led, execute_on_simulator=True)
        # the distributed MST sort and the representative sweep ran
        assert led.measured_rounds >= 10
        assert any("sample sort" in e.reason for e in led.entries)

    def test_simulator_mode_exact_vs_oracle(self):
        from repro.core.bags import replay_min_singleton

        g = erdos_renyi(20, 0.35, weighted=True, seed=13)
        keys = draw_contraction_keys(g, seed=13)
        res = smallest_singleton_cut(g, keys, execute_on_simulator=True)
        oracle = replay_min_singleton(g, keys).min_singleton_weight
        assert abs(res.weight - oracle) < 1e-9

    def test_simulator_mode_reads_the_key_columns(self):
        # The simulated MST's input comes from the key rows, not from
        # the (u, v) -> key dict view.
        g = planted_cut(32, seed=14).graph
        keys = draw_contraction_keys(g, seed=14)
        smallest_singleton_cut(g, keys, execute_on_simulator=True)
        assert "key" not in vars(keys)

    def test_simulator_forest_must_equal_the_keys_mst(self, monkeypatch):
        from repro.ampc.primitives import mst as mst_module

        simulate = mst_module.ampc_minimum_spanning_forest
        monkeypatch.setattr(
            mst_module,
            "ampc_minimum_spanning_forest",
            lambda *args, **kw: simulate(*args, **kw)[:-1],
        )
        g = cycle(12)
        keys = draw_contraction_keys(g, seed=15)
        with pytest.raises(AssertionError, match="simulator MST"):
            smallest_singleton_cut(g, keys, execute_on_simulator=True)


class TestCutQuality:
    def test_cycle_always_finds_two(self):
        # every bag boundary on a cycle is exactly 2 (any arc's interval)
        g = cycle(20)
        for seed in range(5):
            assert smallest_singleton_cut_value(g, seed=seed) == 2.0

    def test_never_below_exact_min_cut(self):
        from repro.baselines import exact_min_cut_weight

        for seed in range(5):
            g = erdos_renyi(20, 0.3, weighted=True, seed=seed)
            exact = exact_min_cut_weight(g)
            got = smallest_singleton_cut_value(g, seed=seed)
            assert got >= exact - 1e-9

    def test_at_most_min_weighted_degree(self):
        for seed in range(5):
            g = erdos_renyi(20, 0.3, weighted=True, seed=50 + seed)
            got = smallest_singleton_cut_value(g, seed=seed)
            assert got <= min(g.degree(v) for v in g.vertices()) + 1e-9


class TestServedLayerNames:
    """The served benchmark's traced guard times Algorithm 3's step 2 and
    level structures by patching ``repro.core.singleton``'s
    ``low_depth_decomposition`` and ``build_level_structure`` by name;
    a served ``/mincut`` must call them through those names: the
    decomposition once per copy, the level build once per trial on the
    trial's copies, returning every level of each."""

    def test_served_mincut_calls_both_names(self, monkeypatch):
        from repro.core import mincut as mincut_module
        from repro.core import singleton as singleton_module
        from repro.service import CutService
        from repro.workloads import clustered_community

        copies, decomps, tables = [], [], []
        track = mincut_module.smallest_singleton_cut
        decompose = singleton_module.low_depth_decomposition
        build = singleton_module.build_level_structure

        def tracking(batch, **kw):
            copies.extend(batch)
            return track(batch, **kw)

        def decomposing(*args, **kw):
            decomps.append(decompose(*args, **kw))
            return decomps[-1]

        def building(trees):
            built = build(trees)
            tables.extend(built)
            return built

        monkeypatch.setattr(mincut_module, "smallest_singleton_cut", tracking)
        monkeypatch.setattr(singleton_module, "low_depth_decomposition", decomposing)
        monkeypatch.setattr(singleton_module, "build_level_structure", building)
        with CutService() as svc:
            svc.register("g", clustered_community(64, intra_p=24 / 64, seed=3).graph)
            out = svc.mincut("g", trials=2, preprocess="safe", seed=5)
        assert out["weight"] > 0
        assert len(copies) > 10
        assert [d.vertices for d in decomps] == [c.keys.vertices for c in copies]
        assert len(tables) == len(decomps)
        for d, table in zip(decomps, tables):
            assert table.slot.shape == (d.height, len(d.vertices))
            assert len(table.first) == d.height + 1
