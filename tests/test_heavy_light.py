"""Tests for the decomposition's heavy paths (Definitions 2-3,
Observations 1-2): :attr:`LowDepthDecomposition.paths`, whose
consecutive vertices are the heavy edges."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees import low_depth_decomposition
from repro.workloads import (
    balanced_binary,
    broom,
    caterpillar,
    path_tree,
    random_tree,
    star_tree,
)


def decomp_of(spec):
    vs, es = spec
    return low_depth_decomposition(vs, es)


def heavy_child(d):
    """Internal vertex -> its heavy child, read off the heavy paths."""
    return {a: b for path in d.paths for a, b in zip(path, path[1:])}


def light_edges_to_root(tree, heavy, v):
    """Number of light edges on the path from ``v`` to the root."""
    count = 0
    while tree.parent[v] is not None:
        p = tree.parent[v]
        count += heavy.get(p) != v
        v = p
    return count


def heavy_paths_to_root(d, v):
    """Number of distinct heavy paths met walking from ``v`` to root."""
    path_of = {u: m for m, path in enumerate(d.paths) for u in path}
    return len({path_of[u] for u in d.tree.path_to_root(v)})


def check_partition(d):
    """Observation 2 and Definition 3: the paths are maximal heavy
    paths, top-down, and partition the vertex set."""
    tree, heavy = d.tree, heavy_child(d)
    covered = set()
    for path in d.paths:
        for a, b in zip(path, path[1:]):
            assert tree.parent[b] == a
        head = tree.parent[path[0]]
        assert head is None or heavy[head] != path[0]
        assert tree.is_leaf(path[-1])
        assert not covered.intersection(path)
        covered.update(path)
    assert covered == set(tree.parent)
    for v in tree.parent:
        assert bool(tree.children[v]) == (v in heavy)


class TestHeavyEdges:
    def test_every_internal_vertex_has_heavy_child(self):
        # Observation 2 under the Sleator-Tarjan definition
        d = decomp_of(random_tree(100, seed=1))
        heavy = heavy_child(d)
        for v in d.tree.parent:
            if d.tree.children[v]:
                assert v in heavy

    def test_heavy_child_has_max_subtree(self):
        for spec in [random_tree(100, seed=2), balanced_binary(5)]:
            d = decomp_of(spec)
            size = d.tree.subtree_size
            for v, h in heavy_child(d).items():
                kids = d.tree.children[v]
                best = max(size[c] for c in kids)
                assert size[h] == best
                # first in child order on ties
                assert h == next(c for c in kids if size[c] == best)

    def test_path_is_single_heavy_path(self):
        d = decomp_of(path_tree(50))
        assert len(d.paths) == 1
        assert d.paths[0] == list(range(50))

    def test_star_heavy_path_is_one_edge(self):
        d = decomp_of(star_tree(10))
        # hub + its heavy child form one path; other leaves are singletons
        assert sorted(map(len, d.paths)) == [1] * 8 + [2]


class TestPartition:
    def test_paths_partition_vertices(self):
        for spec in [
            path_tree(30),
            star_tree(30),
            caterpillar(30),
            broom(30),
            balanced_binary(4),
            random_tree(77, seed=3),
        ]:
            check_partition(decomp_of(spec))

    def test_paths_listed_top_down(self):
        d = decomp_of(random_tree(60, seed=4))
        for path in d.paths:
            for a, b in zip(path, path[1:]):
                assert d.tree.depth[b] == d.tree.depth[a] + 1

    def test_paths_are_order_split_after_leaves(self):
        d = decomp_of(random_tree(60, seed=5))
        index = {v: i for i, v in enumerate(d.vertices)}
        assert [index[v] for path in d.paths for v in path] == d.order


class TestObservation1:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 200), st.integers(0, 50))
    def test_light_edges_bounded_by_log(self, n, seed):
        d = decomp_of(random_tree(n, seed=seed))
        heavy = heavy_child(d)
        bound = math.floor(math.log2(n))
        for v in d.vertices:
            assert light_edges_to_root(d.tree, heavy, v) <= bound

    def test_heavy_paths_to_root_bounded(self):
        d = decomp_of(random_tree(150, seed=6))
        bound = math.floor(math.log2(150)) + 1
        for v in d.vertices:
            assert heavy_paths_to_root(d, v) <= bound

    def test_balanced_binary_hits_log_regime(self):
        vs, es = balanced_binary(6)  # 127 vertices
        d = low_depth_decomposition(vs, es)
        # Siblings tie on subtree size, so the heavy path always takes
        # the first child; the *max-id* leaf (rightmost) therefore
        # crosses a light edge at every level — the true log regime.
        rightmost = max(vs)
        assert light_edges_to_root(d.tree, heavy_child(d), rightmost) == 6
