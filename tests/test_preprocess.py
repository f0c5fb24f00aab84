"""Differential harness for the kernelization pipeline.

Proves kernel+lift is bit-identical (cut weight, and a valid partition
of the *original* vertex set) to the unkernelized path across the
shared corpus (:mod:`cutcorpus`), including the edge cases the
reductions exist for: disconnected graphs, stars, paths, single-edge
graphs, and graphs that reduce to <= 2 vertices.  Self-loop and
zero-weight-edge ingestion is covered at the reader boundary, where
those edges canonicalize away (they cannot affect any cut).

Each comparison appends a record to the ``kernel_shrinkage`` fixture;
when ``KERNEL_SHRINKAGE`` names a path the records become the CI
artifact (shrink ratios + identical-weight flags per instance).
"""

from __future__ import annotations

import io

import pytest

from cutcorpus import connected_corpus, disconnected_corpus
from repro.baselines import (
    karger_stein_boosted,
    matula_min_cut,
    stoer_wagner_min_cut,
)
from repro.core import ampc_min_cut_boosted, apx_split_kcut
from repro.graph import Graph, read_dimacs, read_edgelist
from repro.preprocess import (
    LEVELS,
    kernelize,
    kernelize_for_kcut,
    solve_min_cut,
    validate_level,
)
from repro.service import CutService, GraphStore

CONNECTED = connected_corpus()
DISCONNECTED = disconnected_corpus()
KERNEL_LEVELS = ("safe", "aggressive")


def _assert_valid_cut(graph, cut):
    """The partition is of the original vertex set; weight recomputes."""
    vertices = set(graph.vertices())
    side = set(cut.side)
    assert side and side < vertices
    assert graph.cut_weight(cut.side) == cut.weight


# ----------------------------------------------------------------------
# Exact differential: kernel + Stoer–Wagner == Stoer–Wagner
# ----------------------------------------------------------------------
@pytest.mark.parametrize("level", KERNEL_LEVELS)
@pytest.mark.parametrize("name,graph", CONNECTED, ids=[n for n, _ in CONNECTED])
def test_exact_solver_differential(name, graph, level, kernel_shrinkage):
    expected = stoer_wagner_min_cut(graph)
    kernel = kernelize(graph, level=level)
    cut = kernel.solve(stoer_wagner_min_cut)
    _assert_valid_cut(graph, cut)
    assert cut.weight == expected.weight
    stats = kernel.stats()
    kernel_shrinkage.append(
        {
            "instance": name,
            "level": level,
            "solver": "stoer-wagner",
            "original_vertices": stats["original_vertices"],
            "kernel_vertices": stats["kernel_vertices"],
            "original_edges": stats["original_edges"],
            "kernel_edges": stats["kernel_edges"],
            "vertex_shrink": stats["vertex_shrink"],
            "edge_shrink": stats["edge_shrink"],
            "identical": cut.weight == expected.weight,
        }
    )


@pytest.mark.parametrize("level", KERNEL_LEVELS)
@pytest.mark.parametrize("name,graph", CONNECTED, ids=[n for n, _ in CONNECTED])
def test_blocks_partition_original_vertices(name, graph, level):
    kernel = kernelize(graph, level=level)
    seen: list = []
    for members in kernel.blocks.values():
        seen.extend(members)
    assert sorted(map(repr, seen)) == sorted(map(repr, graph.vertices()))
    assert len(seen) == graph.num_vertices
    # full-side expansion round-trips the whole vertex set
    assert kernel.lift_side(kernel.graph.vertices()) == frozenset(graph.vertices())


@pytest.mark.parametrize("name,graph", CONNECTED, ids=[n for n, _ in CONNECTED])
def test_safe_kernel_preserves_cut_weights_structurally(name, graph):
    """Safe kernels are pure quotients: any kernel cut lifts with equal weight."""
    kernel = kernelize(graph, level="safe")
    if kernel.graph.num_vertices < 2:
        return
    side = [kernel.graph.vertices()[0]]
    assert kernel.graph.cut_weight(side) == graph.cut_weight(kernel.lift_side(side))


@pytest.mark.parametrize("name,graph", CONNECTED, ids=[n for n, _ in CONNECTED])
def test_aggressive_kernel_never_overstates_cut_weights(name, graph):
    """Post-certificate kernel weights lower-bound the lifted weight."""
    kernel = kernelize(graph, level="aggressive")
    if kernel.graph.num_vertices < 2:
        return
    side = [kernel.graph.vertices()[0]]
    assert kernel.graph.cut_weight(side) <= graph.cut_weight(kernel.lift_side(side))


# ----------------------------------------------------------------------
# AMPC differential: preprocessed and raw boosted runs agree
# ----------------------------------------------------------------------
AMPC_CASES = [
    (n, g) for n, g in CONNECTED
    if n in {"planted16", "cycle12", "grid4x5", "barbell10", "path5", "star7"}
]


@pytest.mark.parametrize("name,graph", AMPC_CASES, ids=[n for n, _ in AMPC_CASES])
def test_ampc_boosted_differential(name, graph, kernel_shrinkage):
    """Kernelized AMPC == raw AMPC == exact, per corpus instance.

    Both paths land on the exact minimum (boosting is reliable at these
    sizes and seeds), so the kernelized run is weight-identical to the
    unkernelized one.
    """
    exact = stoer_wagner_min_cut(graph).weight
    raw = ampc_min_cut_boosted(graph, seed=11, trials=4)
    assert raw.weight == exact
    for level in KERNEL_LEVELS:
        pre = ampc_min_cut_boosted(graph, seed=11, trials=4, preprocess=level)
        _assert_valid_cut(graph, pre.cut)
        assert pre.weight == raw.weight
        assert pre.kernel_stats is not None
        assert pre.kernel_stats["level"] == level
        kernel_shrinkage.append(
            {
                "instance": name,
                "level": level,
                "solver": "ampc-boosted",
                "original_vertices": pre.kernel_stats["original_vertices"],
                "kernel_vertices": pre.kernel_stats["kernel_vertices"],
                "original_edges": pre.kernel_stats["original_edges"],
                "kernel_edges": pre.kernel_stats["kernel_edges"],
                "vertex_shrink": pre.kernel_stats["vertex_shrink"],
                "edge_shrink": pre.kernel_stats["edge_shrink"],
                "identical": pre.weight == raw.weight,
            }
        )


@pytest.mark.parametrize(
    "name,graph",
    [(n, g) for n, g in CONNECTED if n in {"planted16", "powerlaw20", "wheel9"}],
    ids=["planted16", "powerlaw20", "wheel9"],
)
def test_randomized_baseline_differential(name, graph):
    """Kernelized Karger–Stein finds the same (exact) weight."""
    exact = stoer_wagner_min_cut(graph).weight
    raw = karger_stein_boosted(graph, seed=5)
    assert raw.weight == exact
    for level in KERNEL_LEVELS:
        cut = solve_min_cut(
            graph, lambda g: karger_stein_boosted(g, seed=5), level=level
        )
        _assert_valid_cut(graph, cut)
        assert cut.weight == raw.weight


@pytest.mark.parametrize("name,graph", CONNECTED, ids=[n for n, _ in CONNECTED])
def test_matula_on_kernel_keeps_guarantee(name, graph):
    """Matula stays within (2+eps) on the kernel (different path is OK)."""
    exact = stoer_wagner_min_cut(graph).weight
    for level in KERNEL_LEVELS:
        cut = solve_min_cut(
            graph, lambda g: matula_min_cut(g, eps=0.5), level=level
        )
        _assert_valid_cut(graph, cut)
        assert exact <= cut.weight <= 2.5 * exact + 1e-9


# ----------------------------------------------------------------------
# Edge cases the reductions exist for
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,graph", DISCONNECTED, ids=[n for n, _ in DISCONNECTED]
)
def test_disconnected_graphs_solve_to_zero(name, graph):
    for level in KERNEL_LEVELS:
        kernel = kernelize(graph, level=level)
        assert kernel.is_solved
        cut = kernel.trivial_cut()
        _assert_valid_cut(graph, cut)
        assert cut.weight == 0.0
        # the preprocessed boosted path extends the solver's domain...
        pre = ampc_min_cut_boosted(graph, preprocess=level)
        assert pre.weight == 0.0
        assert pre.kernel_stats["solved"] is True
    # ...which the unpreprocessed path rejects outright
    with pytest.raises(ValueError):
        ampc_min_cut_boosted(graph)


@pytest.mark.parametrize(
    "name", ["path5", "star7", "powerlaw20", "single_edge"]
)
def test_fully_reducible_graphs_collapse(name):
    graph = dict(CONNECTED)[name]
    expected = stoer_wagner_min_cut(graph).weight
    for level in KERNEL_LEVELS:
        kernel = kernelize(graph, level=level)
        assert kernel.graph.num_vertices <= 2
        assert kernel.solve(stoer_wagner_min_cut).weight == expected


def test_trivial_graphs_match_solver_errors():
    for g in (Graph(), Graph(vertices=[0])):
        kernel = kernelize(g)
        assert kernel.is_solved
        with pytest.raises(ValueError):
            kernel.trivial_cut()
        with pytest.raises(ValueError):
            ampc_min_cut_boosted(g, preprocess="safe")


def test_lift_rejects_foreign_vertices():
    kernel = kernelize(dict(CONNECTED)["planted16"], level="safe")
    with pytest.raises(KeyError):
        kernel.lift_side(["not-a-vertex"])


def test_validate_level():
    assert validate_level(None) == "off"
    assert validate_level(" SAFE ") == "safe"
    assert LEVELS == ("off", "safe", "aggressive")
    with pytest.raises(ValueError):
        validate_level("turbo")


def test_off_level_is_identity():
    graph = dict(CONNECTED)["planted16"]
    kernel = kernelize(graph, level="off")
    assert kernel.graph.num_vertices == graph.num_vertices
    assert kernel.graph.num_edges == graph.num_edges
    assert not kernel.steps
    assert not kernel.is_solved


def test_candidates_rescue_consumed_minimum():
    """When delta = lambda the min cut may be consumed by a reduction;
    the recorded candidate must rescue it at lift time."""
    # Star: the minimum cut is the lightest spoke, which degree-one
    # pruning contracts away — only the candidate remembers it.
    g = Graph(edges=[(0, i, float(i)) for i in range(1, 6)])
    kernel = kernelize(g, level="safe")
    assert kernel.best_candidate is not None
    assert kernel.best_candidate.weight == 1.0
    assert kernel.solve(stoer_wagner_min_cut).weight == 1.0


# ----------------------------------------------------------------------
# Ingestion canonicalization (zero-weight edges, self-loops)
# ----------------------------------------------------------------------
def test_zero_weight_and_self_loop_dimacs_ingestion():
    text = "p cut 3 4\ne 1 2 2\ne 2 3 0\ne 1 1 5\ne 1 3 1\n"
    g = read_dimacs(io.StringIO(text))
    assert g.num_vertices == 3
    assert g.num_edges == 2  # the zero-weight edge and self-loop vanish
    kernel = kernelize(g, level="safe")
    assert kernel.solve(stoer_wagner_min_cut).weight == 1.0


def test_zero_weight_edge_list_ingestion():
    text = "3\nv 0\nv 1\nv 2\ne 0 1 2.0\ne 1 2 0.0\n"
    g = read_edgelist(io.StringIO(text))
    assert g.num_edges == 1
    assert g.num_vertices == 3  # endpoints of dropped edges survive
    # vertex 2 is now isolated: the kernel solves the graph at weight 0
    kernel = kernelize(g)
    assert kernel.is_solved
    assert kernel.trivial_cut().weight == 0.0


# ----------------------------------------------------------------------
# k-cut kernel
# ----------------------------------------------------------------------
def test_kcut_kernel_contracts_heavy_edges_and_lifts_validly():
    # Two unit-weight cliques, one intra-clique super-heavy edge: the
    # candidate 2-cut bound is far below 100, so that edge contracts.
    g = Graph()
    for lo in (0, 5):
        for u in range(lo, lo + 5):
            for v in range(u + 1, lo + 5):
                g.add_edge(u, v, 1.0)
    g.add_edge(0, 1, 99.0)  # reinforce: bundle weight 100
    g.add_edge(2, 7, 1.0)   # light bridge between the cliques
    kernel = kernelize_for_kcut(g, 2, level="safe")
    assert kernel.contracted >= 1
    assert kernel.graph.num_vertices == g.num_vertices - kernel.contracted

    raw = apx_split_kcut(g, 2, seed=3)
    pre = apx_split_kcut(g, 2, seed=3, preprocess="safe")
    assert pre.kernel_stats is not None and pre.kernel_stats["contracted"] >= 1
    # identical optimum weight on this instance, and a valid partition
    assert pre.weight == raw.weight == 1.0
    parts = pre.kcut.parts
    assert sorted(v for p in parts for v in p) == sorted(g.vertices())
    assert g.partition_cut_weight(parts) == pre.weight


def test_kcut_kernel_noop_cases():
    g = dict(CONNECTED)["planted16"]
    # k == n: only the all-singletons partition exists; identity kernel
    kernel = kernelize_for_kcut(g, g.num_vertices, level="safe")
    assert not kernel.reduced
    # off level: identity
    assert not kernelize_for_kcut(g, 3, level="off").reduced
    raw = apx_split_kcut(g, 3, seed=1)
    pre = apx_split_kcut(g, 3, seed=1, preprocess="safe")
    assert g.partition_cut_weight(pre.kcut.parts) == pre.weight
    assert pre.weight <= max(
        raw.weight, pre.kernel_stats["candidate_weight"] or raw.weight
    )


# ----------------------------------------------------------------------
# Service integration: kernels cached per fingerprint, stats exposed
# ----------------------------------------------------------------------
def test_graphstore_kernel_cache_and_eviction():
    from repro.service import CutOracle
    from repro.service.deltas import GraphDelta

    store = GraphStore(capacity=2)
    g1 = dict(CONNECTED)["planted16"]
    g2 = dict(CONNECTED)["grid4x5"]
    e1 = store.register("a", g1)
    fp = e1.fingerprint
    k1 = store.kernel_for(e1, "safe")
    assert store.kernel_for(e1, "safe") is k1  # cached, same object
    assert store.stats.kernel_builds == 1 and store.stats.kernel_hits == 1
    oracle = store.oracle_for(e1, CutOracle)
    assert store.oracle_for(e1, CutOracle) is oracle
    # the oracle lives beside the kernels but is not counted as one
    assert store.stats.kernel_builds == 1
    assert store.describe()["kernels_resident"] == 1
    # same content under another name shares kernel and oracle
    e1b = store.register("a2", g1)
    assert store.kernel_for(e1b, "safe") is k1
    assert store.oracle_for(e1b, CutOracle) is oracle
    # distinct levels build distinct kernels
    assert store.kernel_for(e1, "aggressive") is not k1
    assert store.describe()["kernels_resident"] == 2
    # evicting one of two holders keeps the content's kernels and oracle
    store.register("b", g2)  # capacity 2: evicts LRU "a"
    assert "a" not in store
    assert store.cached_kernel(fp, "safe") is k1
    assert store.oracles() == {fp: oracle}
    # evicting the last holder drops them together
    store.evict("a2")
    assert store.cached_kernel(fp, "safe") is None
    assert store.cached_kernel(fp, "aggressive") is None
    assert store.oracles() == {}
    assert store.describe()["kernels_resident"] == 0

    # an unshared mutation moves kernel and oracle to the new fingerprint
    e2 = store.get("b")
    old_fp = e2.fingerprint
    store.kernel_for(e2, "safe")
    oracle = store.oracle_for(e2, CutOracle)
    oracle.st_min_cut(0, 19)  # build the tree
    e2, record = store.apply_delta(
        "b", GraphDelta.from_json({"adds": [[0, 6, 0.5]]})
    )
    assert e2.fingerprint != old_fp
    assert record.oracle == "masked" and record.kernels_revalidated == 1
    assert store.cached_kernel(old_fp, "safe") is None
    assert store.cached_kernel(e2.fingerprint, "safe") is not None
    assert store.oracles() == {e2.fingerprint: oracle}
    assert store.describe()["kernels_resident"] == 1
    assert oracle.st_min_cut(0, 19) == CutOracle(e2.graph).st_min_cut(0, 19)


def test_service_mincut_preprocess_differential():
    g = dict(CONNECTED)["planted24"]
    exact = stoer_wagner_min_cut(g).weight
    with CutService() as svc:
        svc.register("g", g)
        off = svc.mincut("g", seed=2, trials=4)
        safe = svc.mincut("g", seed=2, trials=4, preprocess="safe")
        agg = svc.mincut("g", seed=2, trials=4, preprocess="aggressive")
        assert off["weight"] == safe["weight"] == agg["weight"] == exact
        assert "preprocess" not in off
        assert safe["preprocess"]["kernel_vertices"] <= g.num_vertices
        assert safe["preprocess"]["level"] == "safe"
        # distinct cache keys per level; warm hits per level
        assert svc.mincut("g", seed=2, trials=4, preprocess="safe")["cached"]
        assert not svc.mincut("g", seed=3, trials=4, preprocess="safe")["cached"]
        # the reported side is a partition of the original vertex set
        side = set(safe["side"])
        assert side < set(g.vertices())
        assert g.cut_weight(side) == safe["weight"]


def test_service_default_preprocess_level_and_kcut():
    g = dict(CONNECTED)["planted16"]
    with CutService(preprocess="safe") as svc:
        svc.register("g", g)
        resp = svc.mincut("g", seed=1, trials=2)
        assert resp["preprocess"]["level"] == "safe"
        over = svc.mincut("g", seed=1, trials=2, preprocess="off")
        assert "preprocess" not in over
        assert over["weight"] == resp["weight"]
        kc = svc.kcut("g", 3, seed=1, preprocess="safe")
        assert kc["preprocess"]["level"] == "safe"
        assert svc.stats()["preprocess"] == "safe"
        assert svc.stats()["store"]["kernel_builds"] >= 1
    with pytest.raises(ValueError):
        CutService(preprocess="bogus")


def test_service_kcut_kernel_cache_and_lift():
    # Heavy intra-clique bundle: the k-cut kernel genuinely contracts,
    # so the service runs trials on the kernel and lifts the partition.
    g = Graph()
    for lo in (0, 5):
        for u in range(lo, lo + 5):
            for v in range(u + 1, lo + 5):
                g.add_edge(u, v, 1.0)
    g.add_edge(0, 1, 99.0)
    g.add_edge(2, 7, 1.0)
    with CutService() as svc:
        svc.register("g", g)
        resp = svc.kcut("g", 2, seed=3, preprocess="safe")
        assert resp["preprocess"]["contracted"] >= 1
        parts = [set(p) for p in resp["parts"]]
        assert sorted(v for p in parts for v in p) == sorted(g.vertices())
        assert g.partition_cut_weight(parts) == resp["weight"] == 1.0
        # kernel cached per (fingerprint, k, level): second query hits
        svc.kcut("g", 2, seed=4, preprocess="safe")
        assert svc.stats()["store"]["kernel_hits"] >= 1
        assert svc.kcut("g", 2, seed=3, preprocess="safe")["cached"]


def test_service_solved_kernel_short_circuits():
    from cutcorpus import disconnected_corpus

    g = dict(disconnected_corpus())["two_pairs"]
    with CutService() as svc:
        svc.register("g", g)
        resp = svc.mincut("g", preprocess="safe")
        assert resp["weight"] == 0.0
        assert resp["rounds"] == 0 and resp["trials"] == 0
        assert resp["preprocess"]["solved"] is True
        assert g.cut_weight(set(resp["side"])) == 0.0
