"""Tests for the decomposition's meta tree (Definition 4, Lemma 5):
:attr:`LowDepthDecomposition.meta_parent` over its heavy paths."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees import low_depth_decomposition
from repro.workloads import (
    paper_figure1_tree,
    path_tree,
    random_tree,
    star_tree,
)


def decomp_of(spec):
    vs, es = spec
    return low_depth_decomposition(vs, es)


def meta_depth(d):
    """Meta-tree depth of each path, the root path at 1."""
    depth = []
    for p in d.meta_parent:
        depth.append(1 if p < 0 else depth[p] + 1)
    return depth


def check_meta(d):
    """Tree-ness and attachment: the root path holds the root and has
    no parent; every other path's parent holds its head's parent."""
    tree, meta = d.tree, d.meta_parent
    assert len(meta) == len(d.paths)
    assert meta[0] == -1 and d.paths[0][0] == tree.root
    for m in range(1, len(meta)):
        assert 0 <= meta[m] < m
        assert tree.parent[d.paths[m][0]] in d.paths[meta[m]]


class TestShape:
    def test_path_contracts_to_single_meta_vertex(self):
        d = decomp_of(path_tree(40))
        assert len(d.paths) == 1
        assert d.meta_parent == [-1]

    def test_star_contracts_to_hub_plus_leaves(self):
        d = decomp_of(star_tree(10))
        assert len(d.paths) == 9
        assert len(d.paths[0]) == 2  # hub + heavy child

    def test_paper_tree_has_ten_meta_vertices(self):
        d = decomp_of(paper_figure1_tree())
        assert len(d.paths) == 10  # matches Figure 2

    def test_validate_on_random_trees(self):
        for seed in range(5):
            check_meta(decomp_of(random_tree(60, seed=seed)))


class TestStructure:
    def test_meta_edges_correspond_to_light_edges(self):
        d = decomp_of(random_tree(80, seed=7))
        heavy = {a: b for path in d.paths for a, b in zip(path, path[1:])}
        light_count = sum(1 for v, p in d.tree.edges() if heavy[p] != v)
        meta_edge_count = sum(1 for p in d.meta_parent if p >= 0)
        assert meta_edge_count == light_count

    def test_attach_vertex_lies_on_parent_path(self):
        d = decomp_of(random_tree(80, seed=8))
        for m, p in enumerate(d.meta_parent):
            if p < 0:
                continue
            attach = d.tree.parent[d.paths[m][0]]
            assert attach in d.paths[p]

    def test_meta_depth_root_is_one(self):
        d = decomp_of(random_tree(40, seed=9))
        depth = meta_depth(d)
        assert depth[0] == 1
        assert all(
            depth[m] == depth[p] + 1 for m, p in enumerate(d.meta_parent) if p >= 0
        )

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 100), st.integers(0, 30))
    def test_property_meta_vertices_equal_heavy_paths(self, n, seed):
        d = decomp_of(random_tree(n, seed=seed))
        assert len(d.meta_parent) == len(d.paths)
        check_meta(d)
