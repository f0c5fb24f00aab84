"""The dynamic-workload layer: graph deltas, selective invalidation.

Three strata, matching the tentpole's guarantees:

1. **Unit** — :class:`~repro.service.deltas.GraphDelta` parsing and
   canonicalization, the new in-place :class:`~repro.graph.Graph`
   mutators, chained fingerprints, store-level copy-on-write and
   optimistic concurrency.
2. **Differential** — the hard gate: for a corpus of (graph,
   delta-sequence) pairs, every post-delta answer served by the warm
   ``mutate`` path is *bit-identical* (cut weight, partition, rounds,
   kernel stats) to a cold service that re-uploads the mutated edge
   list from scratch at every step.  A plain ordered edge-list
   reference model applies the same deltas independently, so the test
   would catch any divergence between the columnar in-place mutators
   and the documented semantics.
3. **Edge cases** — deltas that disconnect the graph, collapse it
   below 3 vertices, remove nonexistent edges (ValueError naming the
   endpoints), reweight-to-zero canonicalization, and interleaved
   mutate/query sequences.
"""

import random

import pytest

from repro import CutService
from repro.flow import gomory_hu_tree
from repro.graph import Graph
from repro.service import (
    FingerprintMismatch,
    GraphDelta,
    GraphStore,
    apply_delta,
    chain_fingerprint,
)
from repro.service.oracle import CutOracle
from repro.workloads import planted_cut
from conftest import serving


def two_triangles() -> Graph:
    """Two heavy triangles joined by one light bridge (min cut 1)."""
    return Graph(
        edges=[
            (0, 1, 2.0), (1, 2, 2.0), (2, 0, 2.0),
            (3, 4, 2.0), (4, 5, 2.0), (5, 3, 2.0),
            (2, 3, 1.0),
        ]
    )


# ======================================================================
# GraphDelta parsing / canonicalization
# ======================================================================
class TestGraphDelta:
    def test_reweight_to_zero_becomes_remove(self):
        d = GraphDelta.from_json({"reweights": [[0, 1, 0.0], [1, 2, 3.0]]})
        assert d.removes == ((0, 1),)
        assert d.reweights == ((1, 2, 3.0),)
        assert d.zero_reweights == 1
        assert d.describe()["zero_reweight_drops"] == 1
        assert d.describe()["removes"] == 0  # none asked for explicitly

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            GraphDelta.from_json({"adds": [[3, 3, 1.0]]})

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GraphDelta.from_json({"adds": [[0, 1, -2.0]]})
        with pytest.raises(ValueError, match=">= 0"):
            GraphDelta.from_json({"reweights": [[0, 1, -2.0]]})

    def test_bad_row_shapes(self):
        with pytest.raises(ValueError, match="want"):
            GraphDelta.from_json({"removes": [[0, 1, 2.0]]})
        with pytest.raises(ValueError, match="want"):
            GraphDelta.from_json({"adds": [[0]]})
        with pytest.raises(ValueError, match="list"):
            GraphDelta.from_json({"adds": {"0": 1}})

    def test_add_weight_defaults_to_one(self):
        d = GraphDelta.from_json({"adds": [[0, 1]]})
        assert d.adds == ((0, 1, 1.0),)

    def test_digest_stable_and_order_sensitive(self):
        a = GraphDelta.from_json({"adds": [[0, 1, 1.0], [1, 2, 1.0]]})
        b = GraphDelta.from_json({"adds": [[0, 1, 1.0], [1, 2, 1.0]]})
        c = GraphDelta.from_json({"adds": [[1, 2, 1.0], [0, 1, 1.0]]})
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        # type-qualified vertex encoding: 1 and "1" never collide
        d = GraphDelta.from_json({"adds": [["0", "1", 1.0]]})
        assert d.digest() != a.digest()

    def test_chain_fingerprint_deterministic(self):
        d = GraphDelta.from_json({"adds": [[0, 1, 1.0]]})
        assert chain_fingerprint("ab" * 32, d) == chain_fingerprint("ab" * 32, d)
        assert chain_fingerprint("ab" * 32, d) != chain_fingerprint("cd" * 32, d)


# ======================================================================
# In-place Graph mutators
# ======================================================================
class TestGraphMutators:
    def test_set_edge_weight_overwrites_in_place(self):
        g = Graph(edges=[(0, 1, 2.0), (1, 2, 3.0)])
        assert g.set_edge_weight(1, 0, 7.0) == 2.0  # orientation-free
        assert g.weight(0, 1) == 7.0
        assert [e for e in g.edges()] == [(0, 1, 7.0), (1, 2, 3.0)]

    def test_set_edge_weight_missing_names_endpoints(self):
        g = Graph(edges=[(0, 1, 2.0)])
        with pytest.raises(ValueError, match="0.*--.*9|9.*--.*0"):
            g.set_edge_weight(0, 9, 1.0)
        with pytest.raises(ValueError, match="positive"):
            g.set_edge_weight(0, 1, 0.0)

    def test_remove_edges_batch_preserves_row_order(self):
        g = Graph(edges=[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 0, 4.0)])
        weights = g.remove_edges([(1, 2), (3, 0)])
        assert weights == [2.0, 4.0]
        assert list(g.edges()) == [(0, 1, 1.0), (2, 3, 3.0)]
        # identical to sequential remove_edge on a sibling copy
        h = Graph(edges=[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 0, 4.0)])
        h.remove_edge(1, 2)
        h.remove_edge(3, 0)
        assert list(h.edges()) == list(g.edges())
        assert h.fingerprint() == g.fingerprint()

    def test_remove_edges_atomic_on_missing(self):
        g = Graph(edges=[(0, 1, 1.0), (1, 2, 2.0)])
        with pytest.raises(ValueError, match="no edge 1 -- 9 to remove"):
            g.remove_edges([(0, 1), (1, 9)])
        assert g.num_edges == 2  # nothing removed

    def test_remove_edges_tolerates_duplicates(self):
        g = Graph(edges=[(0, 1, 1.0), (1, 2, 2.0)])
        assert g.remove_edges([(0, 1), (1, 0)]) == [1.0, 1.0]
        assert g.num_edges == 1

    def test_mutators_invalidate_derived_caches(self):
        g = Graph(edges=[(0, 1, 1.0), (1, 2, 2.0)])
        assert g.degree(1) == 3.0
        g.set_edge_weight(0, 1, 5.0)
        assert g.degree(1) == 7.0
        assert g.neighbors(1) == [0, 2]
        g.remove_edges([(0, 1)])
        assert g.degree(1) == 2.0
        assert g.neighbors(1) == [2]


# ======================================================================
# apply_delta semantics (the documented op order + atomicity)
# ======================================================================
class TestApplyDelta:
    def test_order_reweights_removes_adds(self):
        g = Graph(edges=[(0, 1, 2.0), (1, 2, 3.0)])
        delta = GraphDelta.from_json(
            {
                "removes": [[0, 1]],
                "adds": [[0, 1, 9.0]],  # applied after the remove
            }
        )
        effect = apply_delta(g, delta)
        # replaced edge's row moved to the end
        assert list(g.edges()) == [(1, 2, 3.0), (0, 1, 9.0)]
        assert effect.restructured == 1  # the pair was removed + re-added
        assert effect.changed == ((0, 1, 2.0, 9.0),)
        assert not effect.is_noop

    def test_remove_readd_same_weight_is_not_noop(self):
        # content identical, but the row moved — solver trajectories
        # downstream depend on row order, so this must invalidate.
        g = Graph(edges=[(0, 1, 2.0), (1, 2, 3.0)])
        delta = GraphDelta.from_json(
            {"removes": [[0, 1]], "adds": [[0, 1, 2.0]]}
        )
        effect = apply_delta(g, delta)
        assert effect.restructured == 1
        assert not effect.is_noop
        assert list(g.edges()) == [(1, 2, 3.0), (0, 1, 2.0)]

    def test_same_value_reweight_is_noop(self):
        g = Graph(edges=[(0, 1, 2.0)])
        effect = apply_delta(
            g, GraphDelta.from_json({"reweights": [[0, 1, 2.0]]})
        )
        assert effect.is_noop

    def test_both_orientation_duplicate_remove_counts_once(self):
        g = Graph(edges=[(0, 1, 2.0), (1, 2, 3.0)])
        effect = apply_delta(
            g, GraphDelta.from_json({"removes": [[1, 2], [2, 1]]})
        )
        assert effect.edges_removed == 1
        assert g.num_edges == 1

    def test_add_existing_reinforces(self):
        g = Graph(edges=[(0, 1, 2.0)])
        effect = apply_delta(g, GraphDelta.from_json({"adds": [[1, 0, 3.0]]}))
        assert g.weight(0, 1) == 5.0
        assert effect.reinforced == 1 and effect.edges_added == 0
        assert effect.increase_only

    def test_new_vertices_tracked(self):
        g = Graph(edges=[(0, 1, 2.0)])
        effect = apply_delta(g, GraphDelta.from_json({"adds": [[1, "x", 1.0]]}))
        assert effect.new_vertices == ("x",)
        assert not effect.is_noop

    def test_wire_format_vertex_resolution(self):
        # JSON strings resolve onto existing int vertices, like /stcut
        g = Graph(edges=[(0, 1, 2.0)])
        apply_delta(g, GraphDelta.from_json({"reweights": [["0", "1", 4.0]]}))
        assert g.weight(0, 1) == 4.0
        assert g.num_vertices == 2  # no shadow "0"/"1" vertices

    def test_resolution_collapse_to_self_loop_is_atomic(self):
        # "1" and 1 are distinct on the wire but resolve to one vertex;
        # the collapse must be caught during validation, not after the
        # removes already landed (atomicity).
        g = Graph(edges=[(0, 1, 2.0), (0, 2, 1.0)])
        with pytest.raises(ValueError, match="self-loop"):
            apply_delta(
                g,
                GraphDelta.from_json(
                    {"removes": [[0, 2]], "adds": [["1", 1, 5.0]]}
                ),
            )
        assert g.has_edge(0, 2)  # nothing was applied
        assert g.num_edges == 2

    def test_non_finite_weights_rejected_at_parse(self):
        # json.loads accepts NaN/Infinity; the columnar weights must not.
        import json as _json

        body = _json.loads('{"adds": [[0, 2, NaN]]}')
        with pytest.raises(ValueError, match="finite"):
            GraphDelta.from_json(body)
        body = _json.loads('{"reweights": [[0, 1, Infinity]]}')
        with pytest.raises(ValueError, match="finite"):
            GraphDelta.from_json(body)


# ======================================================================
# Store-level mutation: chaining, COW, optimistic concurrency
# ======================================================================
class TestStoreApplyDelta:
    def test_fingerprint_chains_and_generation_counts(self):
        store = GraphStore()
        entry = store.register("g", two_triangles())
        fp0 = entry.fingerprint
        delta = GraphDelta.from_json({"reweights": [[2, 3, 4.0]]})
        entry, record = store.apply_delta("g", delta)
        assert record.old_fingerprint == fp0
        assert entry.fingerprint == chain_fingerprint(fp0, delta)
        assert entry.generation == 1 and entry.mutations == 1
        assert entry.describe()["generation"] == 1
        # no-op keeps the fingerprint
        entry, record = store.apply_delta(
            "g", GraphDelta.from_json({"reweights": [[2, 3, 4.0]]})
        )
        assert record.effect.is_noop
        assert entry.fingerprint == chain_fingerprint(fp0, delta)
        assert entry.generation == 1 and entry.mutations == 2

    def test_expected_fingerprint_conflict(self):
        store = GraphStore()
        entry = store.register("g", two_triangles())
        with pytest.raises(FingerprintMismatch):
            store.apply_delta(
                "g",
                GraphDelta.from_json({"adds": [[0, 5, 1.0]]}),
                expected_fingerprint="stale",
            )
        assert entry.generation == 0  # nothing applied
        store.apply_delta(
            "g",
            GraphDelta.from_json({"adds": [[0, 5, 1.0]]}),
            expected_fingerprint=entry.fingerprint,
        )

    def test_noop_on_shared_fingerprint_skips_copy_on_write(self):
        store = GraphStore()
        g = two_triangles()
        store.register("a", g)
        store.register("b", g)
        entry, record = store.apply_delta(
            "a", GraphDelta.from_json({"reweights": [[2, 3, 1.0]]})
        )
        assert record.effect.is_noop
        assert not record.copied_on_write
        assert entry.graph is g  # same object, derived caches stay warm
        assert entry.mutations == 1 and entry.generation == 0

    def test_copy_on_write_when_content_shared(self):
        store = GraphStore()
        g = two_triangles()
        store.register("a", g)
        store.register("b", g)  # same object, same fingerprint
        entry, record = store.apply_delta(
            "a", GraphDelta.from_json({"reweights": [[2, 3, 9.0]]})
        )
        assert record.copied_on_write and record.shared
        assert entry.graph is not g
        assert g.weight(2, 3) == 1.0  # sibling's object untouched
        assert store.get("b").fingerprint != entry.fingerprint

    def test_mutating_missing_graph_raises_keyerror(self):
        store = GraphStore()
        with pytest.raises(KeyError):
            store.apply_delta("nope", GraphDelta())

    def test_atomicity_bad_delta_leaves_store_untouched(self):
        store = GraphStore()
        entry = store.register("g", two_triangles())
        fp0 = entry.fingerprint
        with pytest.raises(ValueError, match="no edge 0 -- 9 to remove"):
            store.apply_delta(
                "g",
                GraphDelta.from_json(
                    {"reweights": [[0, 1, 8.0]], "removes": [[0, 9]]}
                ),
            )
        assert entry.fingerprint == fp0
        assert entry.graph.weight(0, 1) == 2.0  # reweight not applied either

    def test_kernel_revalidated_when_still_disconnected(self):
        store = GraphStore()
        g = Graph(edges=[(0, 1, 1.0), (2, 3, 1.0), (3, 4, 2.0)])
        entry = store.register("g", g)
        kernel = store.kernel_for(entry, "safe")
        assert kernel.is_solved
        entry, record = store.apply_delta(
            "g", GraphDelta.from_json({"removes": [[3, 4]]})
        )
        assert record.kernels_revalidated == 1
        assert store.cached_kernel(entry.fingerprint, "safe") is not None
        fresh = store.kernel_for(entry, "safe")
        assert fresh.is_solved and fresh.solved.weight == 0.0
        assert store.stats.kernels_revalidated == 1

    def test_kernel_refreshed_when_no_reduction_applies(self):
        # two_triangles admits no safe-level reduction (no degree-one
        # vertex, every edge below the min weighted degree), and a
        # light chord keeps it that way — the mutated kernel is rebuilt
        # eagerly (a no-op kernelization) instead of dropped.
        store = GraphStore()
        entry = store.register("g", two_triangles())
        store.kernel_for(entry, "safe")
        entry, record = store.apply_delta(
            "g", GraphDelta.from_json({"adds": [[0, 4, 1.0]]})
        )
        assert record.kernels_revalidated == 1
        assert record.kernels_dropped == 0
        assert record.reductions_replayed == 0  # no reductions fired
        assert store.cached_kernel(entry.fingerprint, "safe") is not None

    def test_kernel_dropped_when_certificate_broken(self):
        # A heavy chord (>= the min weighted degree) can certify a
        # contraction, so the no-reduction certificate fails and the
        # kernel drops for a lazy rekernelization.
        store = GraphStore()
        entry = store.register("g", two_triangles())
        store.kernel_for(entry, "safe")
        entry, record = store.apply_delta(
            "g", GraphDelta.from_json({"adds": [[0, 4, 5.0]]})
        )
        assert record.kernels_dropped == 1
        assert store.cached_kernel(entry.fingerprint, "safe") is None


# ======================================================================
# Oracle retention under the monotone certificate
# ======================================================================
class TestOracleDelta:
    def test_masked_retention_serves_without_rebuild(self):
        g = two_triangles()
        oracle = CutOracle(g)
        assert oracle.st_min_cut(0, 5) == 1.0
        # intra-triangle increase: no min cut crosses (0, 1)
        g.set_edge_weight(0, 1, 9.0)
        action = oracle.apply_delta(
            g, [(0, 1, 2.0, 9.0)], has_new_vertices=False
        )
        assert action == "masked"
        assert oracle.st_min_cut(0, 5) == 1.0
        stats = oracle.stats()
        assert stats["builds"] == 1 and stats["mask_hits"] == 1

    def test_crossing_increase_rebuilds_and_is_exact(self):
        g = two_triangles()
        oracle = CutOracle(g)
        assert oracle.st_min_cut(0, 5) == 1.0
        g.set_edge_weight(2, 3, 6.0)  # the bridge: crosses every min cut
        action = oracle.apply_delta(
            g, [(2, 3, 1.0, 6.0)], has_new_vertices=False
        )
        assert action == "masked"
        value = oracle.st_min_cut(0, 5)
        from repro.flow import DinicSolver

        assert value == DinicSolver(g).max_flow(0, 5).value
        assert oracle.stats()["mask_rebuilds"] == 1

    def test_decrease_repairs_tree(self):
        # Regression for the all-or-nothing decrease path: a localized
        # decrease used to drop the whole tree; now the tree is kept
        # and repaired per tree edge, with no full rebuild
        # (mask_rebuilds pinned at 0).
        g = two_triangles()
        oracle = CutOracle(g)
        oracle.st_min_cut(0, 5)
        g.set_edge_weight(0, 1, 0.5)  # intra-triangle decrease
        action = oracle.apply_delta(
            g, [(0, 1, 2.0, 0.5)], has_new_vertices=False
        )
        assert action == "repair-pending"
        assert oracle.built  # tree retained, settled lazily
        from repro.flow import DinicSolver

        assert oracle.st_min_cut(0, 5) == DinicSolver(g).max_flow(0, 5).value
        assert oracle.st_min_cut(0, 1) == DinicSolver(g).max_flow(0, 1).value
        stats = oracle.stats()
        assert stats["builds"] == 1  # the original build only
        assert stats["repairs"] == 1
        assert stats["mask_rebuilds"] == 0
        assert 1 <= stats["repaired_edges"] < g.num_vertices - 1
        assert stats["mode"] == "repaired"

    def test_decrease_disconnecting_falls_back_like_cold(self):
        # Removing the bridge disconnects the graph: repair is
        # impossible, the tree drops, and the next query raises exactly
        # what a cold build on the mutated graph would.
        g = two_triangles()
        oracle = CutOracle(g)
        oracle.st_min_cut(0, 5)
        g.remove_edge(2, 3)
        action = oracle.apply_delta(
            g, [(2, 3, 1.0, 0.0)], has_new_vertices=False
        )
        assert action == "repair-pending"
        with pytest.raises(ValueError, match="connected"):
            oracle.st_min_cut(0, 5)
        assert oracle.stats()["repair_fallbacks"] == 1

    def test_stale_query_cannot_repopulate_cleared_memo(self):
        # A pair answered before a mutation must not be served from
        # that earlier answer afterwards.
        g = two_triangles()
        oracle = CutOracle(g)
        assert oracle.st_min_cut(0, 5) == 1.0
        g.remove_edge(2, 3)
        g.add_edge(2, 3, 6.0)
        oracle.apply_delta(
            g, [(2, 3, 1.0, 6.0)], has_new_vertices=False
        )
        # the fresh query recomputes from the mutated graph
        from repro.flow import DinicSolver

        expected = DinicSolver(g).max_flow(0, 5).value
        assert expected != 1.0  # the old memoised value really is stale
        assert oracle.st_min_cut(0, 5) == expected

    def test_unbuilt_oracle_is_free(self):
        g = two_triangles()
        oracle = CutOracle(g)
        action = oracle.apply_delta(
            g, [(0, 1, 2.0, 3.0)], has_new_vertices=False
        )
        assert action == "unbuilt"

    def test_masked_values_match_fresh_oracle_on_all_pairs(self):
        g = planted_cut(18, seed=5).graph
        oracle = CutOracle(g)
        vertices = g.vertices()
        oracle.st_min_cut(vertices[0], vertices[-1])
        # a few increase-only edits
        edits = []
        for u, v in [(vertices[1], vertices[2]), (vertices[4], vertices[7])]:
            if g.has_edge(u, v):
                old = g.weight(u, v)
                g.set_edge_weight(u, v, old + 3.0)
                edits.append((u, v, old, old + 3.0))
            else:
                g.add_edge(u, v, 3.0)
                edits.append((u, v, 0.0, 3.0))
        oracle.apply_delta(g, edits, has_new_vertices=False)
        fresh = CutOracle(g)
        for s in vertices[:6]:
            for t in vertices[-4:]:
                if s != t:
                    assert oracle.st_min_cut(s, t) == fresh.st_min_cut(s, t)

    def test_all_pairs_on_touched_mask_rebuilds_without_walking(self):
        # A touched edge's own child–parent pair cannot certify, so the
        # whole matrix cannot: all_pairs rebuilds before walking a pair.
        g = two_triangles()
        oracle = CutOracle(g)
        oracle.all_pairs()
        g.set_edge_weight(2, 3, 6.0)  # the bridge: every cut side crosses it
        oracle.apply_delta(g, [(2, 3, 1.0, 6.0)], has_new_vertices=False)
        oracle.st_min_cut(0, 1)  # settles the mask
        assert oracle.stats()["mode"] == "masked"
        hits = oracle.mask_hits
        matrix = oracle.all_pairs().all_pairs_min_cuts()
        assert oracle.mask_hits == hits  # no pair was certified
        assert oracle.mask_rebuilds == 1
        assert matrix == (
            CutOracle(g.copy()).all_pairs().all_pairs_min_cuts()
        )

    def test_all_pairs_on_repaired_tree_rebuilds(self):
        # A repaired tree serves /stcut behind certificates; all_pairs
        # rebuilds it without walking a pair.
        g = planted_cut(18, seed=5).graph
        oracle = CutOracle(g)
        oracle.all_pairs()
        u, v, w = next(iter(g.edges()))
        g.set_edge_weight(u, v, w / 2)
        oracle.apply_delta(g, [(u, v, w, w / 2)], has_new_vertices=False)
        oracle.st_min_cut(u, v)  # settles: a localized repair
        assert oracle.stats()["mode"] == "repaired"
        hits = oracle.mask_hits
        tree = oracle.all_pairs()
        assert oracle.mask_hits == hits
        assert (oracle.builds, oracle.mask_rebuilds) == (2, 1)
        assert oracle.stats()["mode"] == "fresh"
        assert tree.edges == gomory_hu_tree(g.copy()).edges

    def test_all_pairs_after_a_decrease_rebuilds_without_repair(self):
        g = planted_cut(18, seed=5).graph
        oracle = CutOracle(g)
        oracle.all_pairs()
        u, v, w = next(iter(g.edges()))
        g.set_edge_weight(u, v, w / 2)
        assert oracle.apply_delta(
            g, [(u, v, w, w / 2)], has_new_vertices=False
        ) == "repair-pending"
        tree = oracle.all_pairs()
        stats = oracle.stats()
        assert (stats["repairs"], stats["repair_fallbacks"]) == (0, 0)
        assert (stats["builds"], stats["mode"]) == (2, "fresh")
        assert tree.edges == gomory_hu_tree(g.copy()).edges

    def test_readers_never_wait_on_builds_or_see_torn_state(
        self, monkeypatch
    ):
        import sys
        import threading
        import time

        import repro.service.oracle as oracle_module
        from repro.flow import DinicSolver

        # (1) stats() returns while another thread holds a build.
        real_build = oracle_module.gomory_hu_tree
        building, release = threading.Event(), threading.Event()

        def blocked_build(graph, **kw):
            building.set()
            release.wait(timeout=30)
            return real_build(graph, **kw)

        monkeypatch.setattr(oracle_module, "gomory_hu_tree", blocked_build)
        oracle = CutOracle(two_triangles())
        builder = threading.Thread(target=oracle.st_min_cut, args=(0, 5))
        builder.start()
        assert building.wait(timeout=10)
        stats = []
        reader = threading.Thread(target=lambda: stats.append(oracle.stats()))
        reader.start()
        reader.join(timeout=5)
        returned = not reader.is_alive()
        release.set()
        builder.join(timeout=30)
        assert returned, "stats() waited on the build"
        assert not builder.is_alive()
        assert stats[0]["built"] is False and stats[0]["builds"] == 0
        monkeypatch.setattr(oracle_module, "gomory_hu_tree", real_build)

        # (2) queries racing apply_delta answer for one whole graph
        # state: the one before or the one after the delta in flight.
        # The deltas alternate an increase (bridge and a triangle edge
        # doubled) with its dyadic decrease (both halved back).
        low = two_triangles()
        high = low.copy()
        high.set_edge_weight(2, 3, 2.0)
        high.set_edge_weight(0, 1, 4.0)
        up = [(2, 3, 1.0, 2.0), (0, 1, 2.0, 4.0)]
        down = [(u, v, new, old) for u, v, old, new in up]
        vertices = low.vertices()
        refs = []
        for g in (low, high):
            solver = DinicSolver(g)
            refs.append({
                s: {t: solver.max_flow(s, t).value
                    for t in vertices if t != s}
                for s in vertices
            })
        oracle = CutOracle(low)
        oracle.all_pairs()
        done = threading.Event()
        bad, answered = [], []
        # delta k leaves `high` when k is even, `low` when odd; k = -1
        # is the initial `low`.  A query that began after delta `lo`
        # was applied and ended before delta `hi + 1` began must answer
        # for the state after some delta in lo..hi.
        started, applied = [-1], [-1]

        def allowed(lo, hi):
            return [refs[k % 2 == 0] for k in range(lo, hi + 1)]

        def query_pairs():
            rng = random.Random(1)
            while not done.is_set():
                s, t = rng.sample(vertices, 2)
                lo = applied[0]
                value = oracle.st_min_cut(s, t)
                if value not in [r[s][t] for r in allowed(lo, started[0])]:
                    bad.append((s, t, value))
                answered.append(1)

        def query_matrix():
            while not done.is_set():
                lo = applied[0]
                matrix = oracle.all_pairs().all_pairs_min_cuts()
                if matrix not in allowed(lo, started[0]):
                    bad.append(matrix)
                answered.append(1)

        readers = [threading.Thread(target=f)
                   for f in (query_pairs, query_pairs, query_matrix)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        for r in readers:
            r.start()
        try:
            for step in range(40):
                graph, delta = (high, up) if step % 2 == 0 else (low, down)
                started[0] = step
                oracle.apply_delta(graph, delta, has_new_vertices=False)
                applied[0] = step
                # each reader finishes at most one query that began
                # before the delta, so one more answer than readers
                # means some query read the post-delta state
                target = len(answered) + len(readers) + 1
                deadline = time.monotonic() + 10
                while len(answered) < target and time.monotonic() < deadline:
                    time.sleep(0.001)
        finally:
            done.set()
            for r in readers:
                r.join(timeout=30)
            sys.setswitchinterval(switch)
        assert not any(r.is_alive() for r in readers)
        assert bad == []
        stats = oracle.stats()
        assert stats["deltas_retained"] == 40
        assert stats["mask_hits"] + stats["mask_rebuilds"] > 0


# ======================================================================
# The differential harness: warm mutate+query == cold re-upload+query
# ======================================================================
VOLATILE = {"elapsed_s", "cached", "fingerprint", "graph"}


def _comparable(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in VOLATILE}


class EdgeListModel:
    """Ordered edge-list reference: the semantics `/mutate` documents.

    Maintains exactly what a client tracking its own copy of the graph
    would: vertices in first-appearance order, edge rows in insertion
    order; reweights edit rows in place, removes delete rows, adds
    merge-by-sum into an existing row or append.  Cold re-upload builds
    a fresh Graph from this state, so warm/cold agreement proves the
    in-place columnar path preserves both content *and* row order.
    """

    def __init__(self, graph: Graph):
        self.vertices = list(graph.vertices())
        self.rows = [[u, v, w] for u, v, w in graph.edges()]

    def _find(self, u, v):
        for i, (a, b, _) in enumerate(self.rows):
            if {a, b} == {u, v}:
                return i
        return None

    def apply(self, delta: dict) -> None:
        removes = [tuple(r) for r in delta.get("removes", ())]
        for u, v, w in delta.get("reweights", ()):
            if w == 0:
                removes.append((u, v))
                continue
            self.rows[self._find(u, v)][2] = float(w)
        for u, v in removes:
            del self.rows[self._find(u, v)]
        for row in delta.get("adds", ()):
            u, v = row[0], row[1]
            w = float(row[2]) if len(row) == 3 else 1.0
            i = self._find(u, v)
            if i is not None:
                self.rows[i][2] += w
            else:
                for x in (u, v):
                    if x not in self.vertices:
                        self.vertices.append(x)
                self.rows.append([u, v, w])

    def build(self) -> Graph:
        return Graph(vertices=self.vertices, edges=[tuple(r) for r in self.rows])

    def connected(self) -> bool:
        g = self.build()
        return g.num_vertices > 0 and len(g.components()) == 1


def _query_both(warm, cold, model, seed=3):
    """Interleave the query mix on both services; assert bit-identity."""
    graph = model.build()
    n = graph.num_vertices
    for level in ("off", "safe", "aggressive"):
        if level == "off" and not model.connected():
            continue  # Algorithm 1 needs a connected input; the
            # kernelized levels solve disconnection outright
        a = warm.mincut("w", seed=seed, trials=3, preprocess=level)
        b = cold.mincut("c", seed=seed, trials=3, preprocess=level)
        assert _comparable(a) == _comparable(b), (level, a, b)
    if model.connected() and n >= 3:
        vs = graph.vertices()
        for s, t in [(vs[0], vs[-1]), (vs[1], vs[-2])]:
            if s == t:
                continue
            a = warm.stcut("w", s, t)
            b = cold.stcut("c", s, t)
            assert _comparable(a) == _comparable(b), (s, t, a, b)
    if model.connected() and n >= 4:
        a = warm.kcut("w", 3, seed=seed, preprocess="safe")
        b = cold.kcut("c", 3, seed=seed, preprocess="safe")
        assert _comparable(a) == _comparable(b), (a, b)


def _run_differential(initial: Graph, deltas: list[dict], seed=3):
    model = EdgeListModel(initial)
    with CutService() as warm:
        warm.register("w", model.build())
        with CutService() as cold0:
            cold0.register("c", model.build())
            _query_both(warm, cold0, model, seed=seed)
        for delta in deltas:
            warm.mutate("w", deltas=[delta])
            model.apply(delta)
            warm_entry = warm.store.get("w")
            built = model.build()
            assert warm_entry.graph.fingerprint() == built.fingerprint()
            assert list(warm_entry.graph.edges()) == list(built.edges())
            assert warm_entry.graph.vertices() == built.vertices()
            with CutService() as cold:
                cold.register("c", built)
                _query_both(warm, cold, model, seed=seed)


def test_differential_two_triangles_scripted():
    deltas = [
        {"reweights": [[2, 3, 4.0]]},            # increase the bridge
        {"adds": [[0, 4, 0.5]]},                 # second crossing edge
        {"reweights": [[0, 4, 0.0]]},            # reweight-to-zero drop
        {"removes": [[2, 3]]},                   # disconnect!
        {"adds": [[2, 3, 1.0]]},                 # reconnect (row moves)
        {"adds": [[1, 4, 2.0], [6, 0, 1.0]]},    # new vertex 6
        {"removes": [[0, 1]], "adds": [[0, 1, 2.0]]},  # restructure
    ]
    _run_differential(two_triangles(), deltas)


def test_differential_collapse_below_three_nodes():
    g = Graph(edges=[(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)])
    deltas = [
        {"removes": [[1, 2]]},                   # triangle -> path
        {"removes": [[2, 0]]},                   # 2 live + isolated vertex
        {"reweights": [[0, 1, 7.0]]},            # still answers
        {"adds": [[1, 2, 1.0], [2, 0, 1.0]]},    # back to a triangle
    ]
    _run_differential(g, deltas)


def test_differential_planted_random_deltas():
    rng = random.Random(77)
    g = planted_cut(20, seed=9).graph
    model = EdgeListModel(g)
    deltas = []
    for _ in range(8):
        delta: dict = {}
        kind = rng.choice(["add", "remove", "reweight", "mixed"])
        rows = model.rows
        if kind in ("remove", "mixed") and len(rows) > g.num_vertices:
            u, v, _ = rows[rng.randrange(len(rows))]
            delta.setdefault("removes", []).append([u, v])
        if kind in ("reweight", "mixed") and rows:
            u, v, w = rows[rng.randrange(len(rows))]
            if [u, v] not in delta.get("removes", []):
                delta.setdefault("reweights", []).append(
                    [u, v, float(rng.randrange(1, 9))]
                )
        if kind in ("add", "mixed"):
            u, v = rng.sample(range(g.num_vertices + 2), 2)
            delta.setdefault("adds", []).append(
                [u, v, float(rng.randrange(1, 5))]
            )
        if delta:
            deltas.append(delta)
            model.apply(delta)
    _run_differential(planted_cut(20, seed=9).graph, deltas)


def test_differential_interleaved_matches_fresh_service():
    """Interleaved mutate/query on a warm service, bit-identical to a
    fresh service replaying the same deltas."""
    deltas = [
        {"reweights": [[2, 3, 3.0]]},
        {"adds": [[1, 4, 1.0]]},
        {"removes": [[2, 3]]},
    ]
    model = EdgeListModel(two_triangles())
    with CutService() as warm:
        warm.register("w", model.build())
        results = []
        for delta in deltas:
            r = warm.mincut("w", seed=1, trials=2, preprocess="safe")
            warm.mutate("w", deltas=[delta])
            model.apply(delta)
            r2 = warm.mincut("w", seed=1, trials=2, preprocess="safe")
            assert r2["cached"] is False  # the delta invalidated it
            results.append((_comparable(r), _comparable(r2)))
        with CutService() as ref:
            model2 = EdgeListModel(two_triangles())
            ref.register("w", model2.build())
            for (before, after), delta in zip(results, deltas):
                assert _comparable(
                    ref.mincut("w", seed=1, trials=2, preprocess="safe")
                ) == before
                ref.mutate("w", deltas=[delta])
                model2.apply(delta)
                assert _comparable(
                    ref.mincut("w", seed=1, trials=2, preprocess="safe")
                ) == after


# ======================================================================
# Service-level edge cases
# ======================================================================
class TestServiceMutate:
    def test_remove_nonexistent_names_endpoints_and_preserves_state(self):
        with CutService() as svc:
            svc.register("g", two_triangles())
            fp0 = svc.graphs()[0]["fingerprint"]
            with pytest.raises(ValueError, match="no edge 0 -- 9 to remove"):
                svc.mutate("g", removes=[[0, 9]])
            assert svc.graphs()[0]["fingerprint"] == fp0

    def test_reweight_to_zero_drops_edge(self):
        with CutService() as svc:
            svc.register("g", two_triangles())
            resp = svc.mutate("g", reweights=[[2, 3, 0.0]])
            assert resp["num_edges"] == 6
            applied = resp["deltas"][0]["applied"]
            assert applied["zero_reweight_drops"] == 1
            # the graph is now disconnected: kernelized min cut is 0
            assert svc.mincut("g", preprocess="safe")["weight"] == 0.0

    def test_disconnecting_delta_solves_to_zero_and_stcut_errors(self):
        with CutService() as svc:
            svc.register("g", two_triangles())
            assert svc.stcut("g", 0, 5)["weight"] == 1.0
            svc.mutate("g", removes=[[2, 3]])
            assert svc.mincut("g", preprocess="safe")["weight"] == 0.0
            with pytest.raises(ValueError, match="connected"):
                svc.stcut("g", 0, 5)

    def test_noop_delta_keeps_caches(self):
        with CutService() as svc:
            svc.register("g", two_triangles())
            first = svc.mincut("g", seed=1, preprocess="safe")
            resp = svc.mutate("g", reweights=[[2, 3, 1.0]])  # same weight
            assert resp["deltas"][0]["effect"]["no_op"] is True
            assert resp["generation"] == 0
            again = svc.mincut("g", seed=1, preprocess="safe")
            assert again["cached"] is True
            assert _comparable(again) == _comparable(first)

    def test_batched_deltas_apply_in_order(self):
        with CutService() as svc:
            svc.register("g", two_triangles())
            resp = svc.mutate(
                "g",
                deltas=[
                    {"adds": [[0, 4, 1.0]]},
                    {"removes": [[0, 4]]},
                    {"adds": [[0, 4, 2.0]]},
                ],
            )
            assert resp["generation"] == 3
            assert len(resp["deltas"]) == 3
            assert svc.store.get("g").graph.weight(0, 4) == 2.0

    def test_batch_failure_reports_index(self):
        with CutService() as svc:
            svc.register("g", two_triangles())
            with pytest.raises(
                ValueError,
                match="delta 1 of 2 failed: no edge 7 -- 8 to remove",
            ):
                svc.mutate(
                    "g",
                    deltas=[
                        {"adds": [[0, 4, 1.0]]},
                        {"removes": [[7, 8]]},
                    ],
                )
            # delta 0 remains applied, as documented
            assert svc.store.get("g").graph.has_edge(0, 4)

    def test_mutual_exclusion_of_delta_styles(self):
        with CutService() as svc:
            svc.register("g", two_triangles())
            with pytest.raises(ValueError, match="not both"):
                svc.mutate("g", adds=[[0, 4, 1.0]], deltas=[{}])

    def test_solved_kernel_results_rekeyed(self):
        with CutService() as svc:
            svc.register("g", Graph(edges=[(0, 1, 1.0), (2, 3, 1.0), (3, 4, 2.0)]))
            first = svc.mincut("g", preprocess="safe")
            assert first["weight"] == 0.0 and first["rounds"] == 0
            resp = svc.mutate("g", removes=[[3, 4]])
            inv = resp["deltas"][0]["invalidation"]
            assert inv["kernels_revalidated"] == 1
            assert inv["results_rekeyed"] == 1 and inv["results_dropped"] == 0
            again = svc.mincut("g", preprocess="safe")
            assert again["cached"] is True  # served from the re-key
            # and it matches a cold recompute bit for bit
            with CutService() as cold:
                cold.register("c", Graph(edges=[(0, 1, 1.0), (2, 3, 1.0)],
                                         vertices=[0, 1, 2, 3, 4]))
                assert _comparable(cold.mincut("c", preprocess="safe")) == (
                    _comparable(again)
                )

    def test_other_graphs_results_survive(self):
        with CutService() as svc:
            svc.register("a", two_triangles())
            svc.register("b", planted_cut(12, seed=2).graph)
            svc.mincut("a", seed=1)
            svc.mincut("b", seed=1)
            svc.mutate("a", reweights=[[2, 3, 2.0]])
            assert svc.mincut("b", seed=1)["cached"] is True
            assert svc.mincut("a", seed=1)["cached"] is False

    def test_shared_content_mutation_leaves_sibling_warm(self):
        with CutService() as svc:
            g = two_triangles()
            svc.register("a", g)
            svc.register("b", g)
            svc.mincut("a", seed=1)  # cached under the shared fingerprint
            resp = svc.mutate("a", reweights=[[2, 3, 2.0]])
            inv = resp["deltas"][0]["invalidation"]
            assert inv["copied_on_write"] is True
            assert inv["results_dropped"] == 0  # sibling still owns them
            assert svc.mincut("b", seed=1)["cached"] is True
            assert svc.mincut("a", seed=1)["cached"] is False

    def test_expected_fingerprint_roundtrip(self):
        with CutService() as svc:
            svc.register("g", two_triangles())
            fp = svc.graphs()[0]["fingerprint"]
            with pytest.raises(FingerprintMismatch):
                svc.mutate("g", adds=[[0, 4, 1.0]],
                           expected_fingerprint="deadbeef")
            resp = svc.mutate("g", adds=[[0, 4, 1.0]],
                              expected_fingerprint=fp)
            assert resp["generation"] == 1

    def test_mutation_stats_surface(self):
        with CutService() as svc:
            svc.register("g", two_triangles())
            svc.mutate("g", reweights=[[2, 3, 2.0]])
            stats = svc.stats()["store"]
            assert stats["mutations"] == 1


# ======================================================================
# HTTP surface
# ======================================================================
class TestMutateHTTP:
    @pytest.fixture()
    def server(self):
        from repro.service import make_server

        svc = CutService()
        svc.register("g", two_triangles())
        with serving(make_server(svc)) as server:
            yield server
        svc.close()

    def test_mutate_endpoint_roundtrip(self, server):
        from repro.service import request_json

        url = server.url
        resp = request_json(
            url, "/mutate", {"graph": "g", "reweights": [[2, 3, 5.0]]}
        )
        assert resp["generation"] == 1
        assert resp["deltas"][0]["applied"]["reweights"] == 1
        assert request_json(url, "/graphs")["graphs"][0]["generation"] == 1

    def test_mutate_conflict_is_409(self, server):
        import json
        import urllib.error
        import urllib.request

        req = urllib.request.Request(
            server.url + "/mutate",
            data=json.dumps(
                {
                    "graph": "g",
                    "adds": [[0, 4, 1.0]],
                    "expected_fingerprint": "stale",
                }
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 409
        body = json.loads(err.value.read())
        assert "mismatch" in body["error"]

    def test_mutate_bad_delta_is_400_with_endpoints(self, server):
        from repro.service import request_json

        resp = request_json(
            server.url, "/mutate", {"graph": "g", "removes": [[0, 9]]}
        )
        assert "no edge 0 -- 9 to remove" in resp["error"]

    def test_mutate_unknown_graph_is_404(self, server):
        from repro.service import request_json

        resp = request_json(
            server.url, "/mutate", {"graph": "nope", "adds": [[0, 1]]}
        )
        assert "no graph registered" in resp["error"]

    def test_kernelize_endpoint(self, server):
        from repro.service import request_json

        resp = request_json(
            server.url, "/kernelize", {"graph": "g", "level": "safe"}
        )
        assert resp["cached"] is False
        assert resp["kernel"]["level"] == "safe"
        again = request_json(
            server.url, "/kernelize", {"graph": "g", "level": "safe"}
        )
        assert again["cached"] is True

    def test_batch_can_mix_mutate_and_queries(self, server):
        from repro.service import request_json

        resp = request_json(
            server.url,
            "/batch",
            {
                "requests": [
                    {"op": "mincut", "graph": "g", "seed": 1,
                     "preprocess": "safe"},
                    {"op": "mutate", "graph": "g",
                     "reweights": [[2, 3, 4.0]]},
                    {"op": "mincut", "graph": "g", "seed": 1,
                     "preprocess": "safe"},
                    {"op": "mutate", "graph": "g", "removes": [[9, 9]]},
                ]
            },
        )
        first, mutated, second, bad = resp["responses"]
        assert first["weight"] == 1.0
        assert mutated["generation"] == 1
        assert second["weight"] == 4.0
        assert "error" in bad  # errors stay inline
