"""Tests for theory envelopes, tables, and figure reproduction."""

import math

import pytest

from repro.analysis import theory
from repro.analysis.figures import (
    figure3_instance,
    render_all_figures,
    render_figure1,
    render_figure2,
    render_figure3,
)
from repro.analysis.tables import render_kv, render_table


# The exact text of each figure, pinned so a refactor of the structures
# behind them cannot change a byte of what they print.
FIGURE1 = "\n".join(
    [
        "Figure 1 — heavy-light decomposition (= heavy edge, - light edge)",
        "0 [size=18]",
        "   +== 1 [size=17]",
        "   |  +== 2 [size=13]",
        "   |  |  +== 3 [size=10]",
        "   |  |  |  +== 9 [size=5]",
        "   |  |  |  |  +== 10 [size=2]",
        "   |  |  |  |     +== 11 [size=1]",
        "   |  |  |  |  +-- 14 [size=1]",
        "   |  |  |     +-- 17 [size=1]",
        "   |  |  |  +-- 16 [size=1]",
        "   |  |     +-- 4 [size=3]",
        "   |  |     |  +== 13 [size=1]",
        "   |  |        +-- 5 [size=1]",
        "   |  |  +-- 15 [size=1]",
        "   |     +-- 8 [size=1]",
        "      +-- 6 [size=3]",
        "      |  +== 12 [size=1]",
        "         +-- 7 [size=1]",
        "",
        "heavy paths (top-down): ",
        "  P0: 0 = 1 = 2 = 3 = 9 = 10 = 11",
        "  P1: 6 = 12",
        "  P2: 7",
        "  P3: 15",
        "  P4: 8",
        "  P5: 16",
        "  P6: 4 = 13",
        "  P7: 14",
        "  P8: 17",
        "  P9: 5",
    ]
)

FIGURE2 = "\n".join(
    [
        "Figure 2 — meta tree (heavy paths contracted)",
        "M0 {0,1,2,3,9,10,11}",
        "|  +- M1 {6,12}",
        "|     +- M2 {7}",
        "|  +- M3 {15}",
        "|  +- M4 {8}",
        "|  +- M5 {16}",
        "|  +- M6 {4,13}",
        "|     +- M9 {5}",
        "|  +- M7 {14}",
        "   +- M8 {17}",
        "",
        "meta vertices: 10",
    ]
)

FIGURE3 = "\n".join(
    [
        "Figure 3 — contraction-time intervals with respect to a vertex",
        "designated vertex: 2 (label 2)",
        "tree edges with times: 0-1@1, 1-2@2, 2-3@3, 3-4@4, 4-5@5, 5-6@6",
        "ldr_time(2) = 3",
        "  interval [0, 1] weight 1",
        "  interval [0, 1] weight 1",
        "  interval [0, 2] weight 1",
        "  interval [2, 2] weight 1",
        "  interval [2, 3] weight 1",
        "  interval [3, 3] weight 1",
    ]
)


class TestTheory:
    def test_envelopes_monotone_in_n(self):
        xs = [theory.loglog_rounds_envelope(n, 0.5) for n in (16, 256, 65536)]
        assert xs == sorted(xs)

    def test_mpc_prediction_dominates_ampc(self):
        for n in (256, 4096, 10**6):
            assert theory.mpc_rounds_prediction(n) > theory.loglog(n) * 5

    def test_decomposition_envelope(self):
        assert theory.decomposition_height_envelope(1024) == 11 * 11

    def test_lemma1_bound(self):
        assert theory.karger_preservation_lower_bound(2.0) == 0.25
        with pytest.raises(ValueError):
            theory.karger_preservation_lower_bound(0.5)

    def test_lemma2_bound_stronger_than_lemma1(self):
        for t in (2.0, 4.0, 8.0):
            assert theory.singleton_aware_lower_bound(
                t, 0.5
            ) > theory.karger_preservation_lower_bound(t)

    def test_approx_bounds(self):
        assert theory.mincut_approx_bound(0.5) == 2.5
        assert theory.kcut_approx_bound(0.5) == 4.5
        assert theory.sv_approx_bound(4) == 1.5

    def test_fit_recovers_line(self):
        fit = theory.fit_against([1.0, 2.0, 3.0], [3.0, 5.0, 7.0])
        assert abs(fit.scale - 2.0) < 1e-9
        assert abs(fit.intercept - 1.0) < 1e-9
        assert fit.residual < 1e-9
        assert abs(fit.predict(4.0) - 9.0) < 1e-9

    def test_fit_rejects_degenerate(self):
        with pytest.raises(ValueError):
            theory.fit_against([1.0], [1.0])
        with pytest.raises(ValueError):
            theory.fit_against([2.0, 2.0], [1.0, 3.0])


class TestTables:
    def test_render_basic(self):
        out = render_table("T", ["a", "bb"], [[1, 2.5], [10, 0.125]])
        assert "T" in out
        assert "bb" in out
        assert "0.125" in out

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            render_table("T", ["a"], [[1, 2]])

    def test_bool_formatting(self):
        out = render_table("T", ["ok"], [[True], [False]])
        assert "yes" in out and "no" in out

    def test_render_kv(self):
        out = render_kv("meta", [("n", 100), ("eps", 0.5)])
        assert "n" in out and "100" in out


class TestFigures:
    def test_figure1_mentions_heavy_paths(self):
        out = render_figure1()
        assert "heavy path" in out.lower()
        assert "P0:" in out

    def test_figure2_has_ten_meta_vertices(self):
        out = render_figure2()
        assert "meta vertices: 10" in out

    def test_figure3_reports_intervals(self):
        out = render_figure3()
        assert "ldr_time" in out
        assert "interval [" in out

    def test_figure3_instance_times_are_path_positions(self):
        g, keys, v = figure3_instance()
        # tree edges carry times 1..6 along the path
        for t, (a, b) in enumerate(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)], start=1
        ):
            assert keys.of(a, b) == t

    def test_figure3_intervals_within_ldr_domain(self):
        out = render_figure3()
        # every rendered interval must sit inside [0, ldr_time]
        import re

        ldr = int(re.search(r"ldr_time\(\d+\) = (\d+)", out).group(1))
        for a, b in re.findall(r"interval \[(\d+), (\d+)\]", out):
            assert 0 <= int(a) <= int(b) <= ldr

    def test_figures_are_pinned(self):
        assert render_figure1() == FIGURE1
        assert render_figure2() == FIGURE2
        assert render_figure3() == FIGURE3

    def test_render_all(self):
        out = render_all_figures()
        assert "Figure 1" in out and "Figure 2" in out and "Figure 3" in out
