"""Tests for leaders and ldr_time (Lemmas 8, 10, 11)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bag_at, draw_contraction_keys, mst_of_keys
from repro.core.ldr import build_level_structure, keyed_tree
from repro.graph import Graph
from repro.trees import is_valid_decomposition, low_depth_decomposition
from repro.workloads import cycle, erdos_renyi, grid


def setup(g, seed=0):
    keys = draw_contraction_keys(g, seed=seed)
    mst = mst_of_keys(g, keys)
    decomp = low_depth_decomposition(
        g.vertices(), [(u, v) for _, u, v in mst]
    )
    max_key = max(k for k, _, _ in mst)
    return keys, decomp, max_key


def level_structure(keys, decomp, level):
    """``(leader_of, join_time, ldr_time)`` of one level."""
    return build_level_structure(keyed_tree(decomp, keys)).level(level)


class TestLemma8:
    def test_leaders_unique_on_random_graphs(self):
        for seed in range(5):
            g = erdos_renyi(30, 0.25, seed=seed)
            _, decomp, _ = setup(g, seed)
            assert is_valid_decomposition(decomp.tree, decomp.label)

    def test_every_vertex_leads_at_its_own_level(self):
        g = erdos_renyi(25, 0.3, seed=1)
        keys, decomp, max_key = setup(g, 1)
        for level in range(1, decomp.height + 1):
            leader_of, join_time, ldr_time = level_structure(keys, decomp, level)
            for r in ldr_time:
                assert decomp.label[r] == level
                assert leader_of[r] == r
                assert join_time[r] == 0


class TestJoinTimes:
    def test_join_time_is_path_max(self):
        """join_time(x) must equal the max key on the leader->x tree path
        (the erratum in repro.core.ldr: path-max, not path-min)."""
        g = erdos_renyi(20, 0.35, seed=2)
        keys, decomp, max_key = setup(g, 2)
        tree = decomp.tree
        for level in range(1, decomp.height + 1):
            leader_of, join_time, ldr_time = level_structure(keys, decomp, level)
            for x, r in leader_of.items():
                if x == r:
                    continue
                # naive path max on the tree between r and x
                pa = {v: i for i, v in enumerate(tree.path_to_root(r))}
                path = []
                v = x
                while v not in pa:
                    path.append(v)
                    v = tree.parent[v]
                meet = v
                full = path + tree.path_to_root(r)[: pa[meet] + 1]
                mx = 0
                prev = x
                v = x
                while v != meet:
                    p = tree.parent[v]
                    mx = max(mx, keys.of(v, p))
                    v = p
                v = r
                while v != meet:
                    p = tree.parent[v]
                    mx = max(mx, keys.of(v, p))
                    v = p
                assert join_time[x] == mx

    def test_join_time_defines_bag_membership(self):
        """x is in bag(r, t) exactly when t >= join_time(x)."""
        g = erdos_renyi(15, 0.4, seed=3)
        keys, decomp, max_key = setup(g, 3)
        for level in range(1, decomp.height + 1):
            leader_of, join_time, ldr_time = level_structure(keys, decomp, level)
            for r in ldr_time:
                for x, rr in leader_of.items():
                    if rr != r:
                        continue
                    t = join_time[x]
                    if t > 0:
                        assert x not in bag_at(g, keys, r, t - 1)
                    assert x in bag_at(g, keys, r, t)


class TestLdrTime:
    def test_ldr_time_semantics(self):
        """At ldr_time the bag holds no lower-label vertex; one step
        later (if below max key) it does — Definition 7."""
        g = erdos_renyi(18, 0.35, seed=4)
        keys, decomp, max_key = setup(g, 4)
        label = decomp.label
        for level in range(1, decomp.height + 1):
            leader_of, join_time, ldr_time = level_structure(keys, decomp, level)
            for r, ldr in ldr_time.items():
                bag_now = bag_at(g, keys, r, ldr)
                assert all(label[x] >= level for x in bag_now), (
                    "bag absorbed a lower-label vertex before ldr_time"
                )
                bag_next = bag_at(g, keys, r, ldr + 1)
                if len(bag_next) < g.num_vertices and bag_next != bag_now:
                    # strictly grew: the first new arrival makes r lose
                    # leadership only if it has a smaller label
                    pass  # growth without lower labels is possible mid-step

    def test_global_leader_capped_below_max_key(self):
        g = cycle(12)
        keys, decomp, max_key = setup(g, 5)
        leader_of, join_time, ldr_time = level_structure(keys, decomp, 1)
        (r,) = list(ldr_time)
        assert ldr_time[r] == max_key - 1
        # at that time the bag is still a proper subset
        assert len(bag_at(g, keys, r, max_key - 1)) < g.num_vertices

    def test_first_lower_label_arrival_is_ldr_plus_one(self):
        g = grid(4, 4)
        keys, decomp, max_key = setup(g, 6)
        label = decomp.label
        for level in range(2, decomp.height + 1):
            leader_of, join_time, ldr_time = level_structure(keys, decomp, level)
            for r, ldr in ldr_time.items():
                if ldr + 1 > max_key:
                    continue
                bag_next = bag_at(g, keys, r, ldr + 1)
                lower = [x for x in bag_next if label[x] < level]
                # Lemma 11: the crossing happens exactly at ldr+1
                assert lower, (
                    f"leader {r} level {level}: no lower-label vertex at "
                    f"ldr_time+1 = {ldr + 1}"
                )


class TestAllLevels:
    def test_structures_cover_all_vertices_once_as_leaders(self):
        g = erdos_renyi(24, 0.3, seed=7)
        keys, decomp, _ = setup(g, 7)
        tree = keyed_tree(decomp, keys)
        table = build_level_structure(tree)
        leaders = [
            r for i in range(1, decomp.height + 1) for r in table.level(i)[2]
        ]
        assert sorted(map(str, leaders)) == sorted(map(str, g.vertices()))
