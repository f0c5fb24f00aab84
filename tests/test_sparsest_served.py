"""`/sparsestcut` with the oracle's fresh Gomory–Hu tree.

The tree whose sides seed the sweep is the content's oracle tree, read
only while it is fresh (a cold build of the current edge rows).  A warm
answer read off that tree must equal a cold re-upload's, a `/mutate`
must leave the tree not fresh (the next answer equals a cold upload of
the mutated graph), and the oracle is not a kernel: the store's kernel
counters never see it.
"""

import pytest

import sparsest_reference as ref
from test_mutation import VOLATILE, EdgeListModel
from repro.analysis.sparsest import approx_sparsest_cut
from repro.graph import Graph
from repro.service import CutService
from repro.workloads import near_regular_expander

KERNEL_COUNTERS = ("kernel_builds", "kernel_hits", "kernels_dropped_on_mutate")


def _payload(svc, name, **params) -> dict:
    out = svc.sparsestcut(name, **params)
    return {k: v for k, v in out.items() if k not in VOLATILE}


def _solve_span(svc) -> dict:
    spans = [s for s in svc.tracer.snapshot() if s["name"] == "sparsest.solve"]
    return spans[-1]["attrs"]


def _tree_resident(svc, name) -> bool:
    oracle = svc.store.oracles().get(svc.store.peek_fingerprint(name))
    return (oracle is not None and oracle.built
            and oracle.stats()["mode"] == "fresh")


def _cold(model, **params) -> dict:
    with CutService() as cold:
        cold.register("c", model.build())
        return _payload(cold, "c", **params)


@pytest.mark.parametrize("kernel", [False, True])
def test_warm_tree_answers_like_a_cold_upload(kernel):
    model = EdgeListModel(near_regular_expander(32, 4, seed=2))
    with CutService() as warm:
        warm.register("w", model.build())
        assert not _tree_resident(warm, "w")
        _payload(warm, "w", seed=0, trials=1, kernel=kernel)
        assert _tree_resident(warm, "w")
        assert _solve_span(warm)["tree"] in ("built", "none")
        for seed in (1, 7):
            got = _payload(warm, "w", seed=seed, trials=1, kernel=kernel)
            assert got == _cold(model, seed=seed, trials=1, kernel=kernel)
        if not kernel:
            span = _solve_span(warm)
            assert span["tree"] == "cached"
            assert span["starts"] >= 1


def test_mutate_drops_the_tree_and_answers_like_a_cold_upload():
    model = EdgeListModel(near_regular_expander(32, 4, seed=2))
    with CutService() as warm:
        warm.register("w", model.build())
        _payload(warm, "w", seed=0, trials=1)
        before = warm.store.stats.as_dict()
        (u, v, w), (x, y, z) = model.rows[0], model.rows[5]
        for delta in ({"adds": [[u, v, 0.5]]},            # increase
                      {"reweights": [[x, y, z / 2]]}):     # decrease
            warm.mutate("w", **delta)
            model.apply(delta)
            assert not _tree_resident(warm, "w")
            got = _payload(warm, "w", seed=3, trials=1)
            assert _solve_span(warm)["tree"] == "built"
            assert got == _cold(model, seed=3, trials=1)
            assert _tree_resident(warm, "w")
        after = warm.store.stats.as_dict()
        for key in KERNEL_COUNTERS:
            assert after[key] == before[key], key
        assert warm.store.describe()["kernels_resident"] == 0


def test_tree_is_not_counted_as_a_kernel():
    graph = near_regular_expander(24, 4, seed=4)
    with CutService() as svc:
        svc.register("g", graph)
        svc.sparsestcut("g", seed=0)
        svc.sparsestcut("g", seed=1)
        assert _tree_resident(svc, "g")
        stats = svc.store.stats.as_dict()
        assert stats["kernel_builds"] == stats["kernel_hits"] == 0
        assert svc.store.describe()["kernels_resident"] == 0
        svc.kernelize("g", level="safe")
        assert svc.store.describe()["kernels_resident"] == 1


def test_small_or_disconnected_graphs_build_no_tree():
    small = near_regular_expander(12, 4, seed=1)
    split = Graph(edges=[(i, i + 1, 1.0) for i in range(9)]
                  + [(i, i + 1, 1.0) for i in range(10, 19)])
    with CutService() as svc:
        svc.register("small", small)
        svc.register("split", split)
        assert svc.sparsestcut("small")["exact"] is True
        assert _solve_span(svc)["tree"] == "none"
        assert not _tree_resident(svc, "small")
        svc.sparsestcut("split")
        assert _solve_span(svc)["tree"] == "none"
        assert not _tree_resident(svc, "split")


def test_served_answer_is_the_frozen_reference():
    graph = near_regular_expander(32, 4, seed=2)
    with CutService() as svc:
        svc.register("g", graph)
        for seed in (0, 1, 7):
            got = svc.sparsestcut("g", seed=seed, trials=1)
            old = ref.approx_sparsest_cut(graph, seed=seed, trials=1)
            new = approx_sparsest_cut(graph, seed=seed, trials=1)
            assert (got["sparsity"], got["weight"], got["demand"],
                    got["method"]) == (old.sparsity, old.weight,
                                       old.demand, old.method)
            assert frozenset(got["side"]) == old.side == new.side


def test_cancelled_restructure_leaves_the_oracle_not_fresh():
    # A remove plus a re-add at the same weight nets out, but the row
    # moves to the end, and a cold build of the moved rows may record
    # other sides: the settled oracle must not read as fresh again.
    model = EdgeListModel(near_regular_expander(32, 4, seed=2))
    with CutService() as warm:
        warm.register("w", model.build())
        edge = warm.oracle_for(warm.store.get("w")).all_pairs().edges[0]
        u, v, w = model.rows[0]
        delta = {"removes": [[u, v]], "adds": [[u, v, w]]}
        warm.mutate("w", **delta)
        model.apply(delta)
        # a tree edge's own pair certifies, so this settles the empty
        # net without a rebuild
        warm.stcut("w", s=edge.child, t=edge.parent)
        stats = next(iter(warm.stats()["oracles"].values()))
        assert stats["mode"] != "fresh"
        assert (stats["builds"], stats["mask_hits"]) == (1, 1)
        assert not _tree_resident(warm, "w")
        got = _payload(warm, "w", seed=3, trials=1)
        assert _solve_span(warm)["tree"] == "built"
        assert got == _cold(model, seed=3, trials=1)


def test_gomoryhu_then_sparsestcut_builds_one_tree(monkeypatch):
    import repro.analysis.sparsest as sparsest_module
    import repro.service.oracle as oracle_module

    builds = []

    def counted(build):
        def gomory_hu_tree(graph, **kw):
            builds.append(graph.num_vertices)
            return build(graph, **kw)
        return gomory_hu_tree

    for module in (oracle_module, sparsest_module):
        monkeypatch.setattr(module, "gomory_hu_tree",
                            counted(module.gomory_hu_tree))
    with CutService() as svc:
        svc.register("g", near_regular_expander(32, 4, seed=2))
        svc.gomoryhu("g")
        svc.sparsestcut("g", seed=0, trials=1)
        assert _solve_span(svc)["tree"] == "cached"
    assert builds == [32]
