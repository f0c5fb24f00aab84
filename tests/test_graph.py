"""Tests for the weighted graph substrate."""

import re
from fractions import Fraction

import numpy as np
import pytest

from repro.graph import Graph


class TestConstruction:
    def test_add_vertices_and_edges(self):
        g = Graph(vertices=[1, 2, 3], edges=[(1, 2), (2, 3, 5.0)])
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.weight(2, 3) == 5.0
        assert g.weight(1, 2) == 1.0

    def test_parallel_edges_merge_weights(self):
        g = Graph()
        g.add_edge("a", "b", 2.0)
        g.add_edge("b", "a", 3.0)
        assert g.num_edges == 1
        assert g.weight("a", "b") == 5.0

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_nonpositive_weight_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge(1, 2, 0.0)
        with pytest.raises(ValueError):
            g.add_edge(1, 2, -3.0)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), 0.0, -1.5]
    )
    def test_non_finite_weight_rejected_naming_weight_and_endpoints(self, bad):
        """NaN fails ``weight <= 0``, so a bare sign check let it (and
        +inf) into the edge columns."""
        with pytest.raises(ValueError, match=rf"{bad}.*'a' -- 'b'"):
            Graph(edges=[("a", "b", bad)])
        g = Graph(edges=[("x", "y", 1.0)])
        with pytest.raises(ValueError, match=rf"{bad}.*'a' -- 'b'"):
            g.add_edge("a", "b", bad)
        with pytest.raises(ValueError, match=rf"{bad}.*'x' -- 'y'"):
            g.add_edge("x", "y", bad)
        assert g.weight("x", "y") == 1.0 and g.num_edges == 1

    def test_set_edge_weight_rejects_non_finite(self):
        g = Graph(edges=[(0, 1, 2.0), (1, 2, 1.0)])
        for bad in (float("nan"), float("inf"), float("-inf"), 0.0):
            with pytest.raises(ValueError, match=rf"{bad}.*0 -- 1"):
                g.set_edge_weight(0, 1, bad)
        assert g.weight(0, 1) == 2.0

    @pytest.mark.parametrize("bad", [True, False, "2.5", "x", None, [1.0], b"1"])
    def test_non_number_weight_rejected_naming_weight_and_endpoints(self, bad):
        """A boolean used to pass the range check as 1 (or fail it as
        0) and a string failed ``<`` with a bare TypeError; both now get
        the ValueError that NaN gets."""
        with pytest.raises(ValueError, match=rf"{re.escape(repr(bad))}.*0 -- 1"):
            Graph(edges=[(0, 1, bad), (1, 2, 2.0)])
        g = Graph(edges=[(0, 1, 2.0), (1, 2, 1.0)])
        with pytest.raises(ValueError, match=r"number.*0 -- 1"):
            g.add_edge(0, 1, bad)
        with pytest.raises(ValueError, match=r"number.*1 -- 2"):
            g.set_edge_weight(1, 2, bad)
        assert (g.weight(0, 1), g.weight(1, 2), g.num_edges) == (2.0, 1.0, 2)

    def test_bool_weight_issue_repro(self):
        with pytest.raises(ValueError, match=r"True.*0 -- 1"):
            Graph(edges=[(0, 1, True), (1, 2, 2.0)])
        with pytest.raises(ValueError, match=r"'2\.5'.*1 -- 2"):
            Graph(edges=[(0, 1, 1.0), (1, 2, "2.5")])

    @pytest.mark.parametrize(
        "good",
        [3, 2.5, np.float64(2.5), np.float32(0.5), np.int64(4), np.int32(7),
         np.uint8(3), Fraction(1, 4)],
    )
    def test_numpy_and_other_real_weights_accepted(self, good):
        g = Graph(edges=[(0, 1, good)])
        g.add_edge(0, 1, good)
        assert g.weight(0, 1) == 2 * float(good)
        g.set_edge_weight(0, 1, good)
        assert g.weight(0, 1) == float(good)
        assert type(g.weight(0, 1)) is float

    def test_service_register_rejects_a_bool_weight(self):
        from repro.service import CutService

        with CutService() as svc:
            with pytest.raises(ValueError, match=r"True.*1 -- 2"):
                svc.register(
                    "g", Graph(edges=[(0, 1, 1.0), (1, 2, True), (2, 0, 1.0)])
                )
            assert svc.graphs() == []

    def test_reinforcing_to_overflow_rejected(self):
        g = Graph(edges=[(0, 1, 1e308)])
        with pytest.raises(ValueError, match="finite"):
            g.add_edge(1, 0, 1e308)
        assert g.weight(0, 1) == 1e308

    def test_service_register_never_sees_a_non_finite_weight(self):
        """The library path: a triangle with one NaN edge used to
        register, and ``mincut`` then died with a bare IndexError."""
        from repro.service import CutService

        with CutService() as svc:
            with pytest.raises(ValueError, match=r"nan.*1 -- 2"):
                svc.register(
                    "g", Graph(edges=[(0, 1, 1.0), (1, 2, float("nan")),
                                      (2, 0, 1.0)])
                )
            assert svc.graphs() == []
            svc.register("g", Graph(edges=[(0, 1, 1.0), (1, 2, 2.0),
                                           (2, 0, 1.0)]))
            assert svc.mincut("g", trials=1)["weight"] == 2.0

    def test_edge_registers_vertices(self):
        g = Graph()
        g.add_edge(7, 8)
        assert set(g.vertices()) == {7, 8}

    def test_remove_edge(self):
        g = Graph(edges=[(1, 2, 4.0)])
        assert g.remove_edge(2, 1) == 4.0
        assert g.num_edges == 0


class TestQueries:
    def test_degree_is_weighted(self):
        g = Graph(edges=[(0, 1, 2.0), (0, 2, 3.0), (1, 2, 10.0)])
        assert g.degree(0) == 5.0

    def test_neighbors(self):
        g = Graph(edges=[(0, 1), (0, 2), (3, 4)])
        assert sorted(g.neighbors(0)) == [1, 2]
        assert g.neighbors(4) == [3]

    def test_adjacency_symmetric(self):
        g = Graph(edges=[(0, 1, 2.5)])
        adj = g.adjacency()
        assert adj[0][1] == 2.5
        assert adj[1][0] == 2.5

    def test_total_weight(self):
        g = Graph(edges=[(0, 1, 2.0), (1, 2, 3.0)])
        assert g.total_weight() == 5.0

    def test_edge_arrays_roundtrip(self):
        g = Graph(edges=[(0, 1, 2.0), (1, 2, 3.0)])
        us, vs, ws = g.edge_arrays()
        assert len(us) == len(vs) == len(ws) == 2
        assert sorted(ws) == [2.0, 3.0]


class TestCutWeights:
    def test_cut_weight_simple(self):
        g = Graph(edges=[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 4.0)])
        assert g.cut_weight({0}) == 5.0
        assert g.cut_weight({0, 1}) == 6.0

    def test_cut_weight_empty_crossing(self):
        g = Graph(vertices=[0, 1, 2, 3], edges=[(0, 1), (2, 3)])
        assert g.cut_weight({0, 1}) == 0.0

    def test_partition_cut_weight(self):
        g = Graph(edges=[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 0, 4.0)])
        # parts {0,1},{2},{3}: crossing edges (1,2)=2,(2,3)=3,(3,0)=4
        assert g.partition_cut_weight([{0, 1}, {2}, {3}]) == 9.0

    def test_partition_must_cover(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            g.partition_cut_weight([{0}, {1}])


class TestStructureOps:
    def test_components(self):
        g = Graph(vertices=[0, 1, 2, 3, 4], edges=[(0, 1), (2, 3)])
        comps = g.components()
        assert sorted(map(len, comps)) == [1, 2, 2]

    def test_induced_subgraph(self):
        g = Graph(edges=[(0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)])
        sub = g.induced_subgraph([0, 1])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1
        assert sub.weight(0, 1) == 2.0

    def test_quotient_merges_parallel_edges(self):
        g = Graph(edges=[(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0), (2, 3, 4.0)])
        rep = {0: 0, 1: 0, 2: 2, 3: 2}
        q, blocks = g.quotient(rep)
        assert q.num_vertices == 2
        # crossing edges (0,2)+(1,2) merge: 2+3 = 5; (2,3) is internal
        assert q.weight(0, 2) == 5.0
        assert sorted(blocks[0]) == [0, 1]
        assert sorted(blocks[2]) == [2, 3]

    def test_quotient_drops_self_loops(self):
        g = Graph(edges=[(0, 1, 1.0)])
        q, _ = g.quotient({0: 0, 1: 0})
        assert q.num_edges == 0

    def test_without_edges(self):
        g = Graph(edges=[(0, 1, 1.0), (1, 2, 2.0)])
        h = g.without_edges([(1, 0)])
        assert h.num_edges == 1
        assert h.has_edge(1, 2)
        assert not h.has_edge(0, 1)
        assert g.num_edges == 2  # original untouched

    def test_copy_independent(self):
        g = Graph(edges=[(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.num_edges == 1
        assert h.num_edges == 2


class TestCsrCacheInvalidation:
    """neighbors()/degree() are served from cached views that must be
    dropped on any mutation — mutate-after-read returns fresh results."""

    def test_neighbors_fresh_after_add_edge(self):
        g = Graph(edges=[(0, 1), (0, 2)])
        assert sorted(g.neighbors(0)) == [1, 2]
        g.add_edge(0, 3)
        assert sorted(g.neighbors(0)) == [1, 2, 3]
        assert g.neighbors(3) == [0]

    def test_neighbors_fresh_after_remove_edge(self):
        g = Graph(edges=[(0, 1), (0, 2)])
        assert sorted(g.neighbors(0)) == [1, 2]
        g.remove_edge(0, 1)
        assert g.neighbors(0) == [2]
        assert g.neighbors(1) == []

    def test_degree_fresh_after_mutations(self):
        g = Graph(edges=[(0, 1, 2.0), (0, 2, 3.0)])
        assert g.degree(0) == 5.0
        g.add_edge(0, 1, 1.0)  # reinforce merges weights
        assert g.degree(0) == 6.0
        g.remove_edge(0, 2)
        assert g.degree(0) == 3.0
        assert g.degree(2) == 0.0

    def test_degree_fresh_after_add_vertex(self):
        g = Graph(edges=[(0, 1)])
        assert g.degree(0) == 1.0
        g.add_vertex(2)
        assert g.degree(2) == 0.0

    def test_csr_view_is_cached_until_mutation(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        first = g.csr()
        assert g.csr() is first  # cached
        g.add_edge(0, 2)
        assert g.csr() is not first  # invalidated

    def test_neighbors_in_insertion_order(self):
        g = Graph(edges=[(0, 5), (3, 0), (0, 1)])
        assert g.neighbors(0) == [5, 3, 1]


class TestEdgeRemovalErrors:
    """Missing-edge removal raises ValueError naming the endpoints —
    not a KeyError on an internal index tuple."""

    def test_remove_missing_edge(self):
        g = Graph(edges=[(0, 1)])
        with pytest.raises(ValueError, match=r"no edge 0 -- 2"):
            g.remove_edge(0, 2)

    def test_remove_unknown_vertex(self):
        g = Graph(edges=[(0, 1)])
        with pytest.raises(ValueError, match=r"no edge 0 -- 'ghost'"):
            g.remove_edge(0, "ghost")

    def test_without_edges_missing_edge(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=r"no edge 0 -- 2"):
            g.without_edges([(0, 2)])

    def test_without_edges_unknown_vertex(self):
        g = Graph(edges=[(0, 1)])
        with pytest.raises(ValueError, match=r"no edge 9 -- 0"):
            g.without_edges([(9, 0)])

    def test_without_edges_accepts_duplicates_and_orientations(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        h = g.without_edges([(0, 1), (1, 0)])
        assert h.num_edges == 1 and h.has_edge(1, 2)

    def test_remove_then_readd(self):
        g = Graph(edges=[(0, 1, 4.0), (1, 2, 1.0)])
        assert g.remove_edge(0, 1) == 4.0
        g.add_edge(0, 1, 2.0)
        assert g.weight(0, 1) == 2.0
        assert g.num_edges == 2


class TestFingerprint:
    def test_insertion_order_invariant(self):
        a = Graph(edges=[(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.5)])
        b = Graph(vertices=[3, 2, 1, 0])
        b.add_edge(2, 3, 1.5)
        b.add_edge(2, 1, 3.0)  # reversed endpoint order too
        b.add_edge(1, 0, 2.0)
        assert a.fingerprint() == b.fingerprint()

    def test_parallel_edge_merge_equals_single_edge(self):
        a = Graph(edges=[(0, 1, 5.0)])
        b = Graph()
        b.add_edge(0, 1, 2.0)
        b.add_edge(1, 0, 3.0)
        assert a.fingerprint() == b.fingerprint()

    def test_weight_changes_fingerprint(self):
        a = Graph(edges=[(0, 1, 1.0)])
        b = Graph(edges=[(0, 1, 2.0)])
        assert a.fingerprint() != b.fingerprint()

    def test_isolated_vertices_matter(self):
        a = Graph(edges=[(0, 1, 1.0)])
        b = Graph(vertices=[0, 1, 2], edges=[(0, 1, 1.0)])
        assert a.fingerprint() != b.fingerprint()

    def test_vertex_type_distinguished(self):
        a = Graph(edges=[(0, 1, 1.0)])
        b = Graph(edges=[("0", "1", 1.0)])
        assert a.fingerprint() != b.fingerprint()

    def test_mutation_changes_fingerprint(self):
        g = Graph(edges=[(0, 1, 1.0), (1, 2, 1.0)])
        before = g.fingerprint()
        g.add_edge(0, 2, 1.0)
        assert g.fingerprint() != before

    def test_stable_across_processes(self):
        # A fixed literal: the hash must not depend on PYTHONHASHSEED
        # or dict iteration order (it is persisted in result caches).
        g = Graph(edges=[(0, 1, 2.0), (1, 2, 3.0)])
        assert g.fingerprint() == (
            Graph(edges=[(1, 2, 3.0), (0, 1, 2.0)]).fingerprint()
        )
        assert len(g.fingerprint()) == 64
