"""Golden check: columnar keys, MST and contraction equal the frozen
label-keyed path (``tests/keys_reference.py``) on the connected corpus
and on relabeled clustered n=64 graphs, at seeds 0-4 and targets 2,
n/2 and n-1."""

import pytest

import keys_reference as ref
from cutcorpus import connected_corpus, relabeled_clustered
from repro.core.contraction import contract_to_size, mst_of_keys
from repro.core.keys import draw_contraction_keys, draw_uniform_keys

GRAPHS = connected_corpus() + [
    (f"clustered64_{slot}", relabeled_clustered(slot, seed=slot)) for slot in range(2)
]
SEEDS = range(5)


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_keys_mst_and_contraction_match_reference(name, graph):
    n = graph.num_vertices
    for seed in SEEDS:
        keys = draw_contraction_keys(graph, seed=seed)
        old = ref.draw_contraction_keys(graph, seed=seed)
        assert keys.edges_by_key() == old.edges_by_key()
        assert keys.key == old.key
        assert (keys.max_key, keys.key_space) == (old.max_key, old.key_space)
        assert mst_of_keys(graph, keys) == ref.mst_of_keys(graph, old)
        for target in sorted({2, max(1, n // 2), max(1, n - 1)}):
            quotient, blocks = contract_to_size(graph, keys, target)
            old_quotient, old_blocks = ref.contract_to_size(graph, old, target)
            assert list(blocks.items()) == list(old_blocks.items())
            assert quotient.vertices() == old_quotient.vertices()
            assert list(quotient.edges()) == list(old_quotient.edges())


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_uniform_keys_match_reference(name, graph):
    for seed in SEEDS:
        keys = draw_uniform_keys(graph, seed=seed)
        old = ref.draw_uniform_keys(graph, seed=seed)
        assert keys.edges_by_key() == old.edges_by_key()
        assert keys.key == old.key
        assert mst_of_keys(graph, keys) == ref.mst_of_keys(graph, old)
