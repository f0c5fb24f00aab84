"""Tests for the recursion schedule (Section 2's recurrence)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import schedule_for


class TestScheduleShape:
    def test_sizes_strictly_decrease(self):
        s = schedule_for(10_000, eps=0.5)
        sizes = [l.instance_size for l in s.levels]
        assert sizes == sorted(sizes, reverse=True)
        assert len(set(sizes)) == len(sizes)

    def test_depth_is_loglog_plus_constant(self):
        for n in [100, 10_000, 1_000_000, 10**9]:
            s = schedule_for(n, eps=0.5)
            assert s.depth <= s.depth_envelope()

    def test_depth_grows_as_loglog(self):
        """log t grows geometrically, so depth is ~log(log n): squaring
        n (doubling log n) adds only ~log(2)/log(1+delta) ~ 4 levels at
        eps=0.5 — crucially NOT the ~log(n) a halving schedule gives."""
        d1 = schedule_for(10**3, eps=0.5).depth
        d2 = schedule_for(10**6, eps=0.5).depth
        d3 = schedule_for(10**12, eps=0.5).depth
        assert d2 - d1 <= 5
        assert d3 - d2 <= 5
        # halving would give d3 - d1 ~ (1-eps) * (40-10)/2 = 15 levels
        assert d3 - d1 <= 10

    def test_contraction_factors_grow(self):
        s = schedule_for(10**9, eps=0.5)
        xs = [l.x for l in s.levels]
        assert xs == sorted(xs)
        assert xs[-1] > xs[0]  # doubly-exponential regime reached

    def test_base_size_default_is_n_eps(self):
        s = schedule_for(10_000, eps=0.5)
        assert s.base_size == max(4, math.ceil(10_000**0.5))

    def test_copies_capped(self):
        s = schedule_for(10**9, eps=0.5, max_copies=4)
        assert all(l.copies <= 4 for l in s.levels)
        assert all(l.copies >= 2 for l in s.levels)

    def test_smaller_eps_more_levels(self):
        d_half = schedule_for(10**6, eps=0.5).depth
        d_tenth = schedule_for(10**6, eps=0.1).depth
        assert d_tenth >= d_half


class TestValidation:
    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            schedule_for(1)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            schedule_for(100, eps=0.0)
        with pytest.raises(ValueError):
            schedule_for(100, eps=1.0)

    @pytest.mark.parametrize("max_copies", [1, 0, -3])
    def test_rejects_fewer_than_two_copies(self, max_copies):
        """Every level branches into at least 2 copies, so a smaller cap
        used to be ignored silently."""
        with pytest.raises(ValueError, match="max_copies"):
            schedule_for(100, max_copies=max_copies)

    @pytest.mark.parametrize("base_size", [0, -1])
    def test_rejects_empty_base_case(self, base_size):
        with pytest.raises(ValueError, match="base_size"):
            schedule_for(100, base_size=base_size)

    def test_smallest_valid_arguments(self):
        s = schedule_for(100, base_size=1, max_copies=2)
        assert s.base_size == 1 and all(l.copies == 2 for l in s.levels)

    def test_small_n_at_most_one_level(self):
        s = schedule_for(8, eps=0.5)
        assert s.depth <= 1 or s.levels[0].instance_size == 8


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 10**9),
    st.sampled_from([0.2, 0.3, 0.5, 0.8]),
)
def test_property_schedule_terminates_within_envelope(n, eps):
    s = schedule_for(n, eps=eps)
    assert s.depth <= s.depth_envelope()
    if s.levels:
        assert s.levels[0].instance_size == n
