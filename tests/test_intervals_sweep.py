"""Tests for edge time intervals (Lemmas 12-13) and the sweep (Lemma 14)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ampc import AMPCConfig, RoundLedger
from repro.core import bag_at, draw_contraction_keys, mst_of_keys
from repro.core.intervals import IntervalColumns, edge_intervals
from repro.core.ldr import build_level_structure, keyed_tree
from repro.core.sweep import min_interval_overlap, min_interval_overlap_ampc
from repro.trees import low_depth_decomposition
from repro.workloads import erdos_renyi

CFG = AMPCConfig(n_input=200, eps=0.5)


def setup(g, seed=0):
    keys = draw_contraction_keys(g, seed=seed)
    mst = mst_of_keys(g, keys)
    decomp = low_depth_decomposition(g.vertices(), [(u, v) for _, u, v in mst])
    return keys, decomp


def levels(g, keys, decomp):
    """Per level: ``(level, ldr_time, {leader: [(start, end, weight),
    ...]})``, each leader's intervals in edge order."""
    table = build_level_structure(keyed_tree(decomp, keys))
    iv = edge_intervals([(g, table)])
    leaders = [g.vertices()[r] for r in table.leader.tolist()]
    by_leader = {r: [] for r in leaders}
    for row in np.argsort(iv.edge, kind="stable").tolist():
        by_leader[leaders[iv.segment[row]]].append(
            (int(iv.start[row]), int(iv.end[row]), float(iv.weight[row]))
        )
    for level in range(1, decomp.height + 1):
        _, _, ldr_time = table.level(level)
        yield level, ldr_time, {r: by_leader[r] for r in ldr_time}


def columns(intervals, segments=None):
    """``IntervalColumns`` from ``(start, end, weight)`` triples."""
    k = len(intervals)
    start = np.array([a for a, _, _ in intervals], dtype=np.int64)
    end = np.array([b for _, b, _ in intervals], dtype=np.int64)
    weight = np.array([w for _, _, w in intervals], dtype=np.float64)
    segment = np.zeros(k, np.int64) if segments is None else np.array(segments, np.int64)
    return IntervalColumns(segment, start, end, weight, np.arange(k))


def sweep(intervals, domain):
    """One-segment sweep as a ``(weight, t)`` pair of Python scalars."""
    w, t = min_interval_overlap(columns(intervals), np.array([domain]))
    return float(w[0]), int(t[0])


class TestColumnValidation:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            sweep([(5, 4, 1.0)], 8)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            sweep([(-1, 4, 1.0)], 8)


class TestLemma12and13:
    def test_intervals_match_crossing_semantics(self):
        """For every leader r and interval [a,b] of edge e: e crosses
        bag(r, t) for t in [a, b] and not at a-1 / b+1 (within domain).
        This is the Lemma 12+13 semantics checked against Definition 6.
        """
        for trial in range(6):
            g = erdos_renyi(12, 0.4, weighted=True, seed=trial)
            keys, decomp = setup(g, trial)
            for level, ldr_time, intervals in levels(g, keys, decomp):
                if not ldr_time:
                    continue
                for r, ivs in intervals.items():
                    ldr = ldr_time[r]
                    # total coverage at sampled t == boundary weight
                    for t in sorted({0, ldr, ldr // 2, max(0, ldr - 1)}):
                        bag = bag_at(g, keys, r, t)
                        boundary = g.cut_weight(bag) if len(bag) < g.num_vertices else 0.0
                        covered = sum(w for a, b, w in ivs if a <= t <= b)
                        assert abs(covered - boundary) < 1e-9, (
                            trial, level, r, t, covered, boundary
                        )

    def test_intervals_clipped_to_domain(self):
        g = erdos_renyi(15, 0.35, seed=9)
        keys, decomp = setup(g, 9)
        for _, ldr_time, intervals in levels(g, keys, decomp):
            for r, ivs in intervals.items():
                for a, b, _ in ivs:
                    assert 0 <= a <= b <= ldr_time[r]

    def test_leader_degree_covered_at_zero(self):
        """Delta bag(r, 0) = weighted degree of r (Observation sanity)."""
        g = erdos_renyi(14, 0.4, weighted=True, seed=10)
        keys, decomp = setup(g, 10)
        for _, _, intervals in levels(g, keys, decomp):
            for r, ivs in intervals.items():
                at_zero = sum(w for a, _, w in ivs if a == 0)
                assert abs(at_zero - g.degree(r)) < 1e-9

    def test_one_interval_per_edge_and_leader(self):
        g = erdos_renyi(16, 0.4, weighted=True, seed=11)
        keys, decomp = setup(g, 11)
        table = build_level_structure(keyed_tree(decomp, keys))
        iv = edge_intervals([(g, table)])
        pairs = set(zip(iv.segment.tolist(), iv.edge.tolist()))
        assert len(pairs) == iv.segment.size


class TestSweep:
    def test_simple_overlap(self):
        w, t = sweep([(0, 5, 1.0), (2, 3, 1.0), (4, 8, 1.0)], 8)
        assert w == 1.0
        assert t in (0, 6)

    def test_min_at_leading_gap(self):
        assert sweep([(3, 5, 2.0)], 5) == (0.0, 0)

    def test_empty_intervals(self):
        assert sweep([], 10) == (0.0, 0)

    def test_weighted_overlap(self):
        assert sweep([(0, 4, 2.5), (2, 4, 1.0)], 4) == (2.5, 0)

    def test_negative_domain_rejected(self):
        with pytest.raises(ValueError):
            sweep([], -1)

    def test_argmin_is_smallest_t(self):
        assert sweep([(0, 2, 1.0), (1, 4, 1.0)], 4) == (1.0, 0)

    def test_events_past_the_domain_are_dropped(self):
        assert sweep([(0, 9, 1.0), (2, 3, 0.5)], 4) == (1.0, 0)

    def test_small_weights_keep_the_exact_minimum(self):
        """An absolute record tolerance kept 3e-13 here; the minimum is 1e-13."""
        assert sweep([(0, 0, 3e-13), (1, 1, 1e-13)], 1) == (1e-13, 1)

    def test_segments_sweep_independently(self):
        ivs = [(0, 5, 1.0), (0, 1, 4.0), (2, 3, 1.0), (3, 5, 2.0), (9, 9, 1.0)]
        segments = [0, 1, 0, 1, 3]
        w, t = min_interval_overlap(
            columns(ivs, segments), np.array([5, 5, 7, 9])
        )
        assert w.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert t.tolist() == [0, 2, 0, 0]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 30), st.integers(0, 30), st.integers(1, 5),
                st.integers(0, 3),
            ),
            max_size=25,
        ),
        st.lists(st.integers(0, 40), min_size=4, max_size=4),
    )
    def test_property_matches_bruteforce(self, raw, domains):
        """Several segments in one call, each against a brute force."""
        ivs = [
            (min(a, b), min(max(a, b), domains[s]), float(w), s)
            for a, b, w, s in raw
            if min(a, b) <= domains[s]
        ]
        got_w, got_t = min_interval_overlap(
            columns([iv[:3] for iv in ivs], [iv[3] for iv in ivs]),
            np.array(domains),
        )
        for s, domain in enumerate(domains):
            brute = [
                sum(w for a, b, w, seg in ivs if seg == s and a <= t <= b)
                for t in range(domain + 1)
            ]
            assert got_w[s] == min(brute)
            assert got_t[s] == brute.index(min(brute))


class TestSweepAMPC:
    def test_matches_host_sweep(self):
        rng = random.Random(1)
        for trial in range(5):
            ivs = [
                (a, a + rng.randint(0, 10), float(rng.randint(1, 4)))
                for a in (rng.randint(0, 20) for _ in range(15))
            ]
            domain = max(b for _, b, _ in ivs)
            host_w, _ = sweep(ivs, domain)
            iv = columns(ivs)
            dist_w = min_interval_overlap_ampc(
                CFG, iv.start, iv.end, iv.weight, domain
            )
            assert abs(host_w - dist_w) < 1e-9

    def test_measured_rounds_recorded(self):
        led = RoundLedger()
        starts = np.arange(30)
        min_interval_overlap_ampc(
            CFG, starts, starts + 3, np.ones(30), 40, ledger=led
        )
        assert led.measured_rounds >= 6  # sort + prefix pipelines
