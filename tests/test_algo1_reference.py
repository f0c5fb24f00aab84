"""Batched Algorithm 1 against the frozen per-copy path.

:mod:`algo1_reference` keeps ``ampc_min_cut`` as it ran when every copy
of every recursion level made its own Algorithm 3 call, with the keys,
the contraction, the witness bag and the sweep of that time.  The
current trial contracts a level's copies in one pass, builds Lemma 11's
tables for all of them by pointer jumping and lifts cuts through index
arrays; nothing else may change.  On the same seed, a trial must return
the same weight and side, every ledger entry, ``base_solves`` and
``singleton_runs`` -- over the shared cut corpus, relabeled clustered
n=64 graphs (the served mutation stream's shape) with int, str,
mixed-type and equal-keyed labels, planted n=256 and n=2048, at
``max_copies`` 2 and 4.  APX-SPLIT and the served ``/mincut`` and
``/kcut``, which run Algorithm 1 inside, must answer as they did on the
frozen path.  The batched interval build may not depend on where its
chunks split, the batched level tables and contraction must equal the
frozen per-copy ones, and ``root_tree`` must equal its frozen copy.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algo1_reference as ref
from repro.ampc import AMPCConfig, RoundLedger
from cutcorpus import connected_corpus, relabeled_clustered
from repro.core import (
    LevelTable,
    SingletonCopy,
    ampc_min_cut,
    apx_split_kcut,
    contract_to_size,
    draw_contraction_keys,
    mst_of_keys,
    smallest_singleton_cut,
)
from repro.core import intervals as intervals_module
from repro.core import kcut as kcut_module
from repro.core import mincut as mincut_module
from repro.core.intervals import edge_intervals
from repro.core.ldr import build_level_structure, keyed_tree
from repro.graph import Graph
from repro.service import CutService
from repro.service import executor as executor_module
from repro.trees.low_depth import low_depth_decomposition
from repro.trees.rooted import root_tree
from repro.workloads import planted_cut

CORPUS = [(name, g) for name, g in connected_corpus() if g.num_vertices >= 2]
COPIES = (2, 4)


def trial(result):
    """Everything a trial returns, in comparable form."""
    return (
        result.cut.weight,
        result.cut.side,
        result.ledger.entries,
        result.base_solves,
        result.singleton_runs,
    )


def assert_same_trial(graph, seed, max_copies):
    new = ampc_min_cut(graph, seed=seed, max_copies=max_copies)
    old = ref.ampc_min_cut(graph, seed=seed, max_copies=max_copies)
    assert trial(new) == trial(old)
    assert new.ledger.rounds == old.ledger.rounds


class TestTrialBitIdentical:
    @pytest.mark.parametrize("name,g", CORPUS, ids=[n for n, _ in CORPUS])
    @pytest.mark.parametrize("max_copies", COPIES)
    def test_corpus(self, name, g, max_copies):
        for seed in range(3):
            assert_same_trial(g, seed, max_copies)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("max_copies", COPIES)
    def test_relabeled_clustered(self, seed, max_copies):
        assert_same_trial(relabeled_clustered(seed % 2, seed), seed, max_copies)

    @pytest.mark.parametrize("kind", ["str", "mixed", "tied"])
    @pytest.mark.parametrize("max_copies", COPIES)
    def test_relabeled_clustered_label_types(self, kind, max_copies):
        """Copies order their vertices by one type-stable rank per input
        vertex, inherited through the quotients; it must order str,
        mixed-type and equal-keyed labels as ``_stable_key`` did."""
        for seed in range(3):
            g = relabeled_clustered(seed % 2, seed)
            assert_same_trial(relabel_as(g, kind), seed, max_copies)

    @pytest.mark.parametrize("n", [256, 2048])
    @pytest.mark.parametrize("max_copies", COPIES)
    def test_planted(self, n, max_copies):
        assert_same_trial(planted_cut(n, seed=3).graph, 1, max_copies)

    def test_one_batched_call_per_trial(self, monkeypatch):
        sizes = []
        inner = mincut_module.smallest_singleton_cut

        def recording(copies, **kw):
            sizes.append(len(copies))
            return inner(copies, **kw)

        monkeypatch.setattr(mincut_module, "smallest_singleton_cut", recording)
        result = ampc_min_cut(relabeled_clustered(1, 4), seed=2)
        assert sizes == [result.singleton_runs] and sizes[0] > 10


class Tied:
    """A label whose type-stable key it shares with every other
    ``Tied`` of the same name: distinct vertices, equal sort keys."""

    def __init__(self, name):
        self.name = name

    def __str__(self):
        return self.name


def relabel_as(graph, kind):
    """``graph`` with its labels mapped to str, mixed-type (int, str,
    float and tuple) or partly equal-keyed (:class:`Tied`) labels, in
    the same vertex and edge order."""
    def label(i, v):
        if kind == "str":
            return f"v{v}"
        if kind == "tied":
            return Tied(f"t{i % 5}") if i % 3 == 0 else v
        return (v, f"{v}", v + 0.5, (v, -v))[i % 4]

    phi = {v: label(i, v) for i, v in enumerate(graph.vertices())}
    return Graph(
        vertices=[phi[v] for v in graph.vertices()],
        edges=[(phi[u], phi[v], w) for u, v, w in graph.edges()],
    )


class TestKCutUnchanged:
    GRAPHS = [
        ("planted64", planted_cut(64, seed=5).graph),
        ("clustered", relabeled_clustered(0, 9)),
        *[(n, g) for n, g in CORPUS if g.num_vertices > 16],
    ]

    @pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
    @pytest.mark.parametrize("k", [2, 3])
    def test_apx_split_kcut(self, name, g, k, monkeypatch):
        def outcome():
            res = apx_split_kcut(g, k, seed=7)
            return (res.kcut.weight, res.kcut.parts, res.cut_edge_sets,
                    res.ledger.entries, res.iterations)

        new = outcome()
        monkeypatch.setattr(kcut_module, "ampc_min_cut", ref.ampc_min_cut)
        assert new == outcome()


class TestServedUnchanged:
    def test_mincut_and_kcut_payloads(self, monkeypatch):
        graphs = {"clustered": relabeled_clustered(1, 3),
                  "planted": planted_cut(64, seed=2).graph}

        def answers():
            with CutService() as svc:
                for name, g in graphs.items():
                    svc.register(name, g)
                out = []
                for name in graphs:
                    for seed in (0, 3):
                        m = svc.mincut(name, trials=2, seed=seed)
                        k = svc.kcut(name, 3, seed=seed)
                        out.append((m["weight"], m["side"], m["rounds"],
                                    k["weight"], k["parts"], k["rounds"]))
                return out

        new = answers()
        monkeypatch.setattr(executor_module, "ampc_min_cut", ref.ampc_min_cut)
        monkeypatch.setattr(kcut_module, "ampc_min_cut", ref.ampc_min_cut)
        assert new == answers()


def trial_copies(graph, seed):
    """The copies one Algorithm 1 trial hands to Algorithm 3."""
    copies = []
    inner = mincut_module.smallest_singleton_cut

    def recording(batch, **kw):
        copies.extend(batch)
        return inner(batch, **kw)

    saved = mincut_module.smallest_singleton_cut
    mincut_module.smallest_singleton_cut = recording
    try:
        ampc_min_cut(graph, seed=seed)
    finally:
        mincut_module.smallest_singleton_cut = saved
    return copies


def fresh(copies):
    """The same copies with empty ledgers."""
    return [SingletonCopy(c.graph, c.keys, c.config, RoundLedger())
            for c in copies]


def outcome(res):
    return (res.weight, res.leader, res.time, res.cut.side, res.ledger.entries)


class TestBatch:
    def test_batch_equals_one_call_per_copy(self):
        copies = trial_copies(relabeled_clustered(0, 5), 3)
        assert len(copies) > 10
        batched = smallest_singleton_cut(fresh(copies))
        for copy, res in zip(fresh(copies), batched, strict=True):
            one = smallest_singleton_cut(
                copy.graph, copy.keys, config=copy.config, ledger=copy.ledger
            )
            assert outcome(res) == outcome(one)
            old = ref.smallest_singleton_cut(copy.graph, copy.keys,
                                             config=copy.config)
            assert outcome(res) == outcome(old)

    def test_chunks_do_not_change_the_columns(self, monkeypatch):
        """A multi-copy batch masked in chunks that split copies and
        levels anywhere gives the one-pass columns and results."""
        copies = trial_copies(relabeled_clustered(1, 6), 4)
        batch = [(copy.graph, levels_of(copy)) for copy in copies[:6]]
        whole = edge_intervals(batch)
        results = [outcome(r) for r in smallest_singleton_cut(fresh(copies))]
        m = [g.num_edges for g, _ in batch]
        for cells in (1, 2 * m[0] + 1, 2 * m[0] * 3 + 2 * m[1], 5000):
            monkeypatch.setattr(intervals_module, "CHUNK_CELLS", cells)
            chunked = edge_intervals(batch)
            for a, b in zip(whole, chunked, strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            got = [outcome(r) for r in smallest_singleton_cut(fresh(copies))]
            assert got == results

    def test_chunks_stay_under_the_cell_bound(self, monkeypatch):
        """Each masked chunk holds at most CHUNK_CELLS cells, two per
        (row, edge) pair, unless one row alone is larger."""
        copies = trial_copies(relabeled_clustered(0, 8), 2)
        batch = [(copy.graph, levels_of(copy)) for copy in copies]
        row_cells = [
            2 * g.num_edges for g, table in batch for _ in range(table.slot.shape[0])
        ]
        pairs = []
        inner = intervals_module._lemma13

        def recording(slot, join, ldr_times, edge, ws):
            pairs.append(edge.size)
            return inner(slot, join, ldr_times, edge, ws)

        monkeypatch.setattr(intervals_module, "_lemma13", recording)
        for cells in (1, 700, 5000, 1 << 18):
            monkeypatch.setattr(intervals_module, "CHUNK_CELLS", cells)
            pairs.clear()
            edge_intervals(batch)
            assert 2 * sum(pairs) == sum(row_cells)
            assert all(2 * p <= max(cells, max(row_cells)) for p in pairs)
            if cells < min(row_cells):
                assert len(pairs) == len(row_cells)
        assert len(pairs) == 1

    def test_segments_and_edges_are_numbered_per_copy(self):
        copies = trial_copies(relabeled_clustered(0, 2), 1)[:3]
        batch = [(copy.graph, levels_of(copy)) for copy in copies]
        whole = edge_intervals(batch)
        seg_base = edge_base = 0
        for graph, table in batch:
            alone = edge_intervals([(graph, table)])
            segments = table.leader.size
            rows = (whole.segment >= seg_base) & (whole.segment < seg_base + segments)
            assert np.array_equal(whole.segment[rows] - seg_base, alone.segment)
            assert np.array_equal(whole.edge[rows] - edge_base, alone.edge)
            for col in ("start", "end", "weight"):
                assert np.array_equal(getattr(whole, col)[rows], getattr(alone, col))
            seg_base += segments
            edge_base += graph.num_edges

    def test_empty_batch(self):
        assert smallest_singleton_cut([]) == []

    def test_one_contraction_pass_equals_frozen_per_copy(self):
        """A level's copies contracted in one pass: each quotient and
        its blocks equal the frozen one-copy contraction's, and a
        one-graph call is a batch of one."""
        copies = trial_copies(relabeled_clustered(0, 3), 2)
        batch = [
            (c.graph, c.keys, max(2, c.graph.num_vertices * 2 // 3))
            for c in copies
        ]
        for (g, keys, target), got in zip(batch, contract_to_size(batch), strict=True):
            old_q, old_blocks = ref.contract_to_size(g, keys, target)
            one_q, one_blocks = contract_to_size(g, keys, target)
            V, reps = g.vertices(), got.graph.vertices()
            blocks = {r: [] for r in reps}
            for v, q in zip(V, got.block.tolist()):
                blocks[reps[q]].append(v)
            assert [V[r] for r in got.rep.tolist()] == reps
            for q, b in ((got.graph, blocks), (one_q, one_blocks)):
                assert q.vertices() == old_q.vertices()
                assert list(b.items()) == list(old_blocks.items())
                for a, o in zip(q._columns(), old_q._columns(), strict=True):
                    assert a.dtype == o.dtype and np.array_equal(a, o)

    def test_disconnected_copy_is_rejected(self):
        g = Graph(edges=[(0, 1, 1.0), (2, 3, 1.0)])
        config = AMPCConfig(n_input=4, m_input=2)
        copy = SingletonCopy(g, draw_contraction_keys(g), config, RoundLedger())
        with pytest.raises(ValueError, match="connected"):
            smallest_singleton_cut([copy])


def levels_of(copy):
    """A copy's level table, indexed in its graph's vertex order."""
    mst = mst_of_keys(copy.graph, copy.keys)
    decomp = low_depth_decomposition(
        copy.graph.vertices(), [(u, v) for _, u, v in mst]
    )
    return build_level_structure(keyed_tree(decomp, copy.keys))


class TestLevelTables:
    """Lemma 11's tables built for a whole batch by pointer jumping
    equal the frozen per-leader DFS's, copy by copy."""

    @staticmethod
    def assert_same(batch):
        tables = build_level_structure(batch)
        assert len(tables) == len(batch)
        for tree, table in zip(batch, tables):
            for got in (table, build_level_structure(tree)):
                want = ref.build_level_table(tree)
                assert got.vertices == want.vertices
                for field in LevelTable._fields[1:]:
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.dtype == b.dtype and np.array_equal(a, b), field

    def test_trial_copies(self):
        for graph, seed in ((relabeled_clustered(1, 2), 5),
                            (planted_cut(256, seed=3).graph, 1)):
            copies = trial_copies(graph, seed)
            self.assert_same([keyed_tree(decomposed(c), c.keys) for c in copies])

    def test_corpus(self):
        batch = []
        for _, g in CORPUS:
            for seed in range(3):
                keys = draw_contraction_keys(g, seed=seed)
                mst = keys.mst
                decomp = low_depth_decomposition(keys.vertices, rows=(mst.u, mst.v))
                batch.append(keyed_tree(decomp, keys))
        self.assert_same(batch)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(2, 40), st.integers(0, 2**31), st.integers(0, 2)),
        min_size=1, max_size=5,
    ))
    def test_random_trees(self, shapes):
        """Batches of random trees: uniform attachment, paths and stars,
        keyed by random unique keys."""
        batch = []
        for n, seed, shape in shapes:
            rng = random.Random(seed)
            edges = []
            for v in range(1, n):
                u = (rng.randrange(v), v - 1, 0)[shape]
                edges.append((u, v, rng.choice((1.0, 2.0, 0.5))))
            labels = list(range(n))
            rng.shuffle(labels)
            tree = Graph(vertices=labels,
                         edges=[(labels[u], labels[v], w) for u, v, w in edges])
            keys = draw_contraction_keys(tree, seed=seed)
            mst = keys.mst
            decomp = low_depth_decomposition(keys.vertices, rows=(mst.u, mst.v))
            batch.append(keyed_tree(decomp, keys))
        self.assert_same(batch)


def decomposed(copy):
    """A copy's decomposition, as Algorithm 3's step 2 makes it."""
    mst = copy.keys.mst
    return low_depth_decomposition(copy.keys.vertices, rows=(mst.u, mst.v))


class TestRootTree:
    """``root_tree`` keys each vertex once and no longer re-sorts child
    lists; its output must equal the frozen function's."""

    GRAPHS = CORPUS + [
        ("clustered", relabeled_clustered(0, 1)),
        ("planted64", planted_cut(64, seed=4).graph),
        ("mixed_labels", Graph(edges=[
            (0, "a", 1.0), ("a", 2, 2.0), (2, "b", 1.5), ("b", 10, 1.0),
            (10, "10", 3.0), ("10", 0, 1.0), (1.5, 0, 2.0), ((1, 2), "a", 1.0),
        ])),
    ]

    @pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
    def test_equals_frozen_root_tree(self, name, g):
        for seed in range(4):
            mst = mst_of_keys(g, draw_contraction_keys(g, seed=seed))
            edges = [(u, v) for _, u, v in mst]
            for root in (None, g.vertices()[-1]):
                new = root_tree(g.vertices(), edges, root=root)
                old = ref.root_tree(g.vertices(), edges, root=root)
                assert new == old
                for field in ("parent", "children", "depth", "subtree_size",
                              "preorder"):
                    assert list(getattr(new, field).items()) == list(
                        getattr(old, field).items()
                    )
