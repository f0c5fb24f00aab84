"""Tests for the generalized low-depth decomposition (Algorithm 2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ampc import AMPCConfig, RoundLedger
from repro.trees.binarized import depth_table
from repro.trees import (
    check_definition_1,
    decomposition_forest_sequence,
    is_valid_decomposition,
    level_components,
    low_depth_decomposition,
    low_depth_decomposition_ampc,
    root_tree,
)
from repro.workloads import (
    balanced_binary,
    broom,
    caterpillar,
    paper_figure1_tree,
    path_tree,
    random_tree,
    star_tree,
)

ALL_SHAPES = {
    "path": path_tree(64),
    "star": star_tree(48),
    "caterpillar": caterpillar(60),
    "broom": broom(48),
    "balanced": balanced_binary(5),
    "random": random_tree(120, seed=1),
    "paper": paper_figure1_tree(),
    "single": ([0], []),
    "pair": ([0, 1], [(0, 1)]),
}


class TestDefinition1:
    @pytest.mark.parametrize("name", sorted(ALL_SHAPES))
    def test_valid_on_shape(self, name):
        vs, es = ALL_SHAPES[name]
        d = low_depth_decomposition(vs, es)
        check_definition_1(d.tree, d.label)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 150), st.integers(0, 1000))
    def test_property_valid_on_random_trees(self, n, seed):
        vs, es = random_tree(n, seed=seed)
        d = low_depth_decomposition(vs, es)
        assert is_valid_decomposition(d.tree, d.label)

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(2, 100),
        st.floats(min_value=-0.9, max_value=0.9),
        st.integers(0, 100),
    )
    def test_property_valid_on_biased_trees(self, n, bias, seed):
        vs, es = random_tree(n, seed=seed, attach_bias=bias)
        d = low_depth_decomposition(vs, es)
        assert is_valid_decomposition(d.tree, d.label)


class TestHeight:
    @pytest.mark.parametrize("name", sorted(ALL_SHAPES))
    def test_height_within_log_squared(self, name):
        vs, es = ALL_SHAPES[name]
        d = low_depth_decomposition(vs, es)
        assert d.height <= d.height_bound()

    def test_path_height_is_logarithmic(self):
        # one heavy path: height = binarized-path depth = ~log2 n
        vs, es = path_tree(1024)
        d = low_depth_decomposition(vs, es)
        assert d.height <= math.floor(math.log2(2 * 1024 - 1)) + 1

    def test_labels_are_positive(self):
        vs, es = random_tree(50, seed=2)
        d = low_depth_decomposition(vs, es)
        assert all(l >= 1 for l in d.label.values())

    def test_labels_cover_vertex_set(self):
        vs, es = random_tree(50, seed=3)
        d = low_depth_decomposition(vs, es)
        assert set(d.label) == set(vs)


class TestSplittingProcess:
    def test_forest_sequence_ends_in_isolated_vertices(self):
        vs, es = random_tree(40, seed=4)
        d = low_depth_decomposition(vs, es)
        seq = decomposition_forest_sequence(d)
        assert len(seq[0]) == 1  # T_1 is the whole connected tree
        # the last level's components are single vertices
        assert all(len(c) == 1 for c in seq[-1])

    def test_components_refine_monotonically(self):
        vs, es = random_tree(40, seed=5)
        d = low_depth_decomposition(vs, es)
        prev_sizes = None
        for i in range(1, d.height + 1):
            comps = level_components(d.tree, d.label, i)
            total = sum(len(c) for c in comps)
            if prev_sizes is not None:
                assert total <= prev_sizes  # vertices only leave
            prev_sizes = total

    def test_depth_table_anchor_within_leaf(self):
        # A label is its anchor's expanded depth and the anchor is an
        # ancestor of the vertex's leaf (or the leaf), so no label
        # exceeds its vertex's expanded leaf depth.
        for length in range(1, 513):
            anchor, leaf = depth_table(length)
            assert len(anchor) == len(leaf) == length
            assert all(a <= b for a, b in zip(anchor, leaf)), length


class TestAMPCVariant:
    def test_matches_host_computation(self):
        vs, es = random_tree(70, seed=7)
        host = low_depth_decomposition(vs, es)
        led = RoundLedger()
        dist = low_depth_decomposition_ampc(vs, es, ledger=led)
        assert host.label == dist.label

    def test_ledger_cites_lemmas(self):
        vs, es = random_tree(50, seed=8)
        led = RoundLedger()
        low_depth_decomposition_ampc(vs, es, ledger=led)
        cited = " ".join(led.citations())
        assert "Lemma 5" in cited
        assert "Lemma 6" in cited
        assert "Lemma 7" in cited
        assert led.measured_rounds > 0  # the rooting really ran

    def test_rounds_constant_in_n(self):
        rounds = []
        for n in [32, 128, 256]:
            vs, es = random_tree(n, seed=n)
            led = RoundLedger()
            cfg = AMPCConfig(n_input=n, eps=0.5)
            low_depth_decomposition_ampc(vs, es, config=cfg, ledger=led)
            rounds.append(led.rounds)
        assert max(rounds) - min(rounds) <= 10
        assert max(rounds) <= 30
