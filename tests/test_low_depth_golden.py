"""Golden check: the index labeler equals the frozen object path.

``repro.trees.low_depth`` labels a tree on vertex indices in one pass;
``tests/low_depth_reference.py`` keeps the object-path decomposition it
replaced (``root_tree``, heavy-light, meta tree, one binarized path per
heavy path, the label climb).  On the same tree the two must give the
same ``labels`` and the same ``order`` -- which fixes each level's
leader slots -- the same per-level leader lists, and heavy paths and
meta tree (``paths`` and ``meta_parent`` against the reference's
``HeavyLight.paths`` and ``MetaTree.parent``): on tiny trees,
long paths, stars and caterpillars, random trees with mixed ``int`` /
``str`` labels (the type-stable order puts ``10`` before ``9``), the
keyed MST of every corpus graph, and every copy Algorithm 1 hands to
Algorithm 3 on clustered n=64 and planted n=2048.
"""

import random

import pytest

import low_depth_reference as ref
from cutcorpus import connected_corpus, relabeled_clustered
from repro.core import ampc_min_cut, draw_contraction_keys
from repro.core import singleton as singleton_module
from repro.core.ldr import build_level_structure, keyed_tree
from repro.trees import low_depth_decomposition
from repro.trees.ablation import low_depth_decomposition_no_binarization
from repro.workloads import (
    balanced_binary,
    broom,
    caterpillar,
    clustered_community,
    path_tree,
    planted_cut,
    random_tree,
    star_tree,
)


def assert_same(vertices, edges, *, root=None):
    new = low_depth_decomposition(vertices, edges, root=root)
    old = ref.low_depth_decomposition(vertices, edges, root=root)
    assert new.labels == old.labels
    assert new.order == old.order
    assert list(new.label.items()) == list(old.label.items())
    assert new.height == old.height
    assert_same_paths(new, old)
    return new, old


def assert_same_paths(new, old):
    """The heavy paths and the meta tree against the reference's
    ``HeavyLight`` and ``MetaTree``."""
    assert new.paths == old.hl.paths
    assert new.meta_parent == [
        -1 if p is None else p for p in old.meta.parent.values()
    ]


def assert_same_rows(vertices, us, vs):
    """The row form (what Algorithm 3 passes) against the reference on
    the same tree as vertex pairs."""
    new = low_depth_decomposition(vertices, rows=(us, vs))
    old = ref.low_depth_decomposition(
        vertices, [(vertices[a], vertices[b]) for a, b in zip(us, vs)]
    )
    assert new.labels == old.labels
    assert new.order == old.order
    assert_same_paths(new, old)
    return new, old


def assert_same_leaders(new, old, keys):
    """Each level's leaders as Algorithm 3 builds them from ``new``,
    against the leader lists read off ``old``'s labels and order."""
    labels, want = old.labels, {}
    for i in old.order:
        want.setdefault(labels[i], []).append(i)
    tree = keyed_tree(new, keys)
    assert tree.leaders == want
    assert list(tree.leaders) == list(want)
    table = build_level_structure(tree)
    first = table.first.tolist()
    for level in range(1, new.height + 1):
        assert (
            table.leader[first[level - 1]:first[level]].tolist()
            == want.get(level, [])
        )


SHAPES = {
    "single": ([0], []),
    "pair": ([0, 1], [(0, 1)]),
    "pair_reversed": ([1, 0], [(1, 0)]),
    "path_1000": path_tree(1000),
    "path_257": path_tree(257),
    "star_64": star_tree(64),
    "caterpillar_90": caterpillar(90),
    "broom_70": broom(70),
    "balanced_6": balanced_binary(6),
}


class TestShapes:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_shape(self, name):
        assert_same(*SHAPES[name])

    @pytest.mark.parametrize("name", ["path_257", "star_64", "caterpillar_90"])
    def test_shape_reversed_vertex_order(self, name):
        vs, es = SHAPES[name]
        assert_same(list(reversed(vs)), list(reversed(es)))

    def test_explicit_root(self):
        vs, es = random_tree(40, seed=3)
        for root in (vs[0], vs[17], vs[-1]):
            assert_same(vs, es, root=root)

    def test_views_match(self):
        vs, es = random_tree(90, seed=5)
        new, old = assert_same(vs, es)
        assert new.tree == old.tree


def mixed_tree(n, seed):
    """A random tree on ``0..n/2`` and ``"0".."n/2"`` in shuffled order."""
    rng = random.Random(seed)
    vs = [i if i % 2 else str(i) for i in range(n)]
    rng.shuffle(vs)
    es = [(vs[i], vs[rng.randrange(i)]) for i in range(1, n)]
    rng.shuffle(es)
    return vs, es


class TestRandomTrees:
    @pytest.mark.parametrize("seed", range(12))
    def test_int_labels(self, seed):
        for n in (3, 10, 33, 120):
            assert_same(*random_tree(n, seed=seed))

    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_int_and_str_labels(self, seed):
        for n in (2, 11, 40, 150):
            assert_same(*mixed_tree(n, seed))

    def test_type_stable_order_is_not_numeric(self):
        # "10" < "9" under the type-stable order, so 10 is the root
        vs = [9, 10, 11]
        new, _ = assert_same(vs, [(9, 10), (10, 11)])
        assert new.rooting.root == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_biased_trees(self, seed):
        vs, es = random_tree(200, seed=seed, attach_bias=0.8)
        assert_same(vs, es)


def test_no_binarization_ablation_labels_by_position():
    """The ablation runs the same labeler with position depths: the
    i-th vertex of a heavy path gets its attach vertex's label plus
    i + 1, on the reference's heavy paths."""
    for vs, es in [random_tree(80, seed=1), mixed_tree(60, 2), caterpillar(40)]:
        hl = ref.heavy_light_decomposition(ref.root_tree(vs, es))
        meta = ref.build_meta_tree(hl)
        want = {}
        for m, path in enumerate(hl.paths):
            base = 0 if meta.parent[m] is None else want[meta.attach[m]]
            for i, v in enumerate(path):
                want[v] = base + i + 1
        got = low_depth_decomposition_no_binarization(vs, es)
        assert list(got.items()) == list(want.items())


CORPUS = [(name, g) for name, g in connected_corpus() if g.num_vertices >= 2]


@pytest.mark.parametrize("name,g", CORPUS, ids=[name for name, _ in CORPUS])
def test_keyed_mst_of_corpus(name, g):
    for seed in range(4):
        keys = draw_contraction_keys(g, seed=seed)
        mst = keys.mst
        new, old = assert_same_rows(keys.vertices, mst.u, mst.v)
        assert_same_leaders(new, old, keys)


def trial_copies(monkeypatch, graph, seeds):
    """Every copy Algorithm 3 decomposes in trials of ``graph``: its
    keys and the decomposition the solver made."""
    seen = []
    inner = singleton_module.low_depth_decomposition

    def recording(vertices, *args, rows, **kw):
        decomp = inner(vertices, *args, rows=rows, **kw)
        seen.append(decomp)
        return decomp

    monkeypatch.setattr(singleton_module, "low_depth_decomposition", recording)
    keys_of = []
    inner_key = singleton_module.keyed_tree

    def recording_keys(decomp, keys):
        keys_of.append(keys)
        return inner_key(decomp, keys)

    monkeypatch.setattr(singleton_module, "keyed_tree", recording_keys)
    for seed in seeds:
        ampc_min_cut(graph, seed=seed)
    assert len(seen) == len(keys_of) > 0
    return list(zip(seen, keys_of, strict=True))


class TestTrialCopies:
    def test_clustered_64(self, monkeypatch):
        g = clustered_community(64, intra_p=24 / 64, seed=3).graph
        copies = trial_copies(monkeypatch, g, (1, 2))
        for decomp, keys in copies:
            new, old = assert_same_rows(keys.vertices, keys.mst.u, keys.mst.v)
            assert new.labels == decomp.labels and new.order == decomp.order
            assert_same_leaders(decomp, old, keys)

    def test_relabeled_clustered_64(self, monkeypatch):
        copies = trial_copies(monkeypatch, relabeled_clustered(1, 5), (3,))
        for decomp, keys in copies:
            _, old = assert_same_rows(keys.vertices, keys.mst.u, keys.mst.v)
            assert_same_leaders(decomp, old, keys)

    def test_planted_2048(self, monkeypatch):
        g = planted_cut(2048, seed=3).graph
        copies = trial_copies(monkeypatch, g, (1,))
        assert max(len(d.vertices) for d, _ in copies) > 1000
        for decomp, keys in copies:
            _, old = assert_same_rows(keys.vertices, keys.mst.u, keys.mst.v)
            assert_same_leaders(decomp, old, keys)
