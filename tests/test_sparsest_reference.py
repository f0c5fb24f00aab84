"""The sparsest-cut local search against its frozen plain climb.

:mod:`sparsest_reference` keeps ``approx_sparsest_cut`` as it was when
it refined every start, duplicates included, and scored every flip
with a full ``Graph.cut_weight`` pass.  The current solver refines each
distinct start once and screens flips from the CSR rows, confirming
every survivor exactly, so every field of its answer must equal the
reference's bit for bit: over the shared cut corpus, over random graphs
whose non-dyadic weights make the screen's float slack matter, over the
n=32 expander the served benchmark solves, and under the integer node
sizes a sparsest kernel hands the solver.
"""

import dataclasses
import math
import random

import pytest

import sparsest_reference as ref
from cutcorpus import connected_corpus, disconnected_corpus
from repro.analysis import sparsest
from repro.analysis.sparsest import (
    approx_sparsest_cut,
    cut_sparsity,
    exact_sparsest_cut,
    sparsest_kernel,
)
from repro.flow import gomory_hu_tree
from repro.graph import Graph
from repro.workloads import near_regular_expander

SEEDS = (0, 1, 7)
TRIALS = (0, 1, 2)
FIELDS = [f.name for f in dataclasses.fields(ref.SparsestCutResult)]


def random_float_graph(i: int) -> Graph:
    """A connected random graph with non-dyadic float weights."""
    rng = random.Random(7000 + i)
    n = rng.randint(5, 36)
    g = Graph(vertices=range(n))
    for v in range(1, n):  # a random spanning tree keeps it connected
        g.add_edge(rng.randrange(v), v, rng.uniform(0.05, 3.0))
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v) and rng.random() < 0.2:
                g.add_edge(u, v, rng.uniform(0.05, 3.0) / 3.0)
    return g


GRAPHS = (
    [(name, g) for name, g in connected_corpus() + disconnected_corpus()
     if g.num_vertices >= 2]
    + [(f"float{i}", random_float_graph(i)) for i in range(20)]
    + [("expander32", near_regular_expander(32, 4, seed=2)),
       ("edgeless3", Graph(vertices=[0, 1, 2]))]
)


def assert_same(new, old):
    for name in FIELDS:
        assert getattr(new, name) == getattr(old, name), name


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_matches_frozen_reference(name, graph):
    for seed in SEEDS:
        for trials in TRIALS:
            new = approx_sparsest_cut(graph, seed=seed, trials=trials)
            old = ref.approx_sparsest_cut(graph, seed=seed, trials=trials)
            assert_same(new, old)
            assert 1 <= new.starts <= new.candidates


def _kernel_instances():
    """Expanders with a random 30% of edges made heavy: the kernel
    contracts those into blocks of several sizes (17-31 vertices)."""
    out = []
    for seed in range(4):
        base = near_regular_expander(48, 4, seed=seed)
        rng = random.Random(seed)
        graph = Graph(vertices=base.vertices())
        for u, v, w in base.edges():
            graph.add_edge(u, v, 40.0 if rng.random() < 0.3 else w)
        upper = approx_sparsest_cut(graph, seed=0, trials=1).sparsity
        kernel, ksizes, _ = sparsest_kernel(graph, upper=upper)
        out.append((f"heavy48-{seed}", kernel, ksizes))
    return out


KERNELS = _kernel_instances()


@pytest.mark.parametrize("name,kernel,ksizes", KERNELS,
                         ids=[name for name, _, _ in KERNELS])
def test_matches_reference_under_kernel_sizes(name, kernel, ksizes):
    assert kernel.num_vertices > 2
    assert len(set(ksizes.values())) > 1  # the sizes really are non-uniform
    for seed in SEEDS:
        for trials in TRIALS:
            new = approx_sparsest_cut(kernel, sizes=ksizes, seed=seed,
                                      trials=trials)
            old = ref.approx_sparsest_cut(kernel, sizes=ksizes, seed=seed,
                                          trials=trials)
            assert_same(new, old)


def test_badly_scaled_sizes_fall_back_to_exact_flips():
    # A size ratio of 1e12 makes the demand bound useless: every flip
    # is evaluated exactly and the answer still matches.
    graph = near_regular_expander(20, 4, seed=5)
    sizes = {v: (1e12 if i == 3 else 1.0)
             for i, v in enumerate(graph.vertices())}
    mu = sparsest._size_map(graph, sizes)
    assert not sparsest._FlipScreen(graph, mu, sum(mu.values())).on
    for seed in SEEDS:
        assert_same(approx_sparsest_cut(graph, sizes=sizes, seed=seed),
                    ref.approx_sparsest_cut(graph, sizes=sizes, seed=seed))


def test_given_tree_matches_fresh_build():
    graph = near_regular_expander(32, 4, seed=2)
    tree = gomory_hu_tree(graph)
    for seed in SEEDS:
        assert (approx_sparsest_cut(graph, seed=seed, trials=1, tree=tree)
                == approx_sparsest_cut(graph, seed=seed, trials=1))


def test_screen_skips_most_exact_evaluations(monkeypatch):
    graph = near_regular_expander(32, 4, seed=2)
    calls = []
    original = Graph.cut_weight

    def counted(self, side):
        calls.append(1)
        return original(self, side)

    monkeypatch.setattr(Graph, "cut_weight", counted)
    ref.approx_sparsest_cut(graph, seed=1, trials=1)
    old_calls = len(calls)
    calls.clear()
    approx_sparsest_cut(graph, seed=1, trials=1)
    assert len(calls) * 5 < old_calls


def _frozen_kernel(graph, *, upper, sizes=None):
    """``sparsest_kernel`` with its own label union–find, as it was
    before the contraction moved onto ``contract_in_order``: each heavy
    edge hangs ``v``'s root under ``u``'s, path halving, in row order,
    until a pass merges nothing."""
    mu = sparsest._size_map(graph, sizes)
    total = float(sum(mu.values()))
    threshold = float(upper) * (total * total) / 4.0

    current = graph
    blocks = {v: frozenset([v]) for v in graph.vertices()}
    while True:
        parent = {v: v for v in current.vertices()}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        merged = False
        for u, v, w in current.edges():
            if w > threshold:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[rv] = ru
                    merged = True
        if not merged:
            break
        rep = {v: find(v) for v in current.vertices()}
        current, qblocks = current.quotient(rep)
        blocks = {
            root: frozenset().union(*(blocks[m] for m in members))
            for root, members in qblocks.items()
        }
    kernel_sizes = {
        v: sum(mu[orig] for orig in blocks[v]) for v in current.vertices()
    }
    return current, kernel_sizes, blocks


CONNECTED = connected_corpus()


@pytest.mark.parametrize("name,graph", CONNECTED,
                         ids=[name for name, _ in CONNECTED])
def test_kernel_matches_frozen_union_find(name, graph):
    # Thresholds below every weight (one block), at the median weight
    # (partial, iterating as merged parallel edges get heavier) and
    # near the maximum (a few heavy edges or none).
    ws = sorted(w for _, _, w in graph.edges())
    scale = 4.0 / graph.num_vertices ** 2
    for level in (0.5 * ws[0], ws[len(ws) // 2], 0.9 * ws[-1]):
        new, new_sizes, new_blocks = sparsest_kernel(graph, upper=level * scale)
        old, old_sizes, old_blocks = _frozen_kernel(graph, upper=level * scale)
        assert new.vertices() == old.vertices()
        assert list(new.edges()) == list(old.edges())
        assert new_sizes == old_sizes
        assert new_blocks == old_blocks


class TestSizeValidation:
    """Sizes must be finite and positive, and cover every vertex."""

    GRAPH = Graph(edges=[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_size_is_rejected(self, bad):
        sizes = {0: bad, 1: 1.0, 2: 1.0}
        for solve in (lambda: cut_sparsity(self.GRAPH, {0}, sizes=sizes),
                      lambda: exact_sparsest_cut(self.GRAPH, sizes=sizes),
                      lambda: approx_sparsest_cut(self.GRAPH, sizes=sizes),
                      lambda: sparsest_kernel(self.GRAPH, upper=1.0,
                                              sizes=sizes)):
            with pytest.raises(ValueError, match="vertex 0"):
                solve()

    def test_missing_vertex_is_named(self):
        with pytest.raises(ValueError, match="vertex 2"):
            exact_sparsest_cut(self.GRAPH, sizes={0: 1.0, 1: 1.0})

    def test_one_infinite_size_no_longer_reads_as_zero(self):
        # It used to report sparsity 0.0 on this connected graph.
        with pytest.raises(ValueError, match="positive and finite"):
            exact_sparsest_cut(self.GRAPH, sizes={0: math.inf, 1: 1.0, 2: 1.0})
