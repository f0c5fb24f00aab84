"""Ablation experiments for the paper's design choices.

A1 — **binarized paths** (Definition 5): without them, heavy paths are
labelled by position and the decomposition height degrades from
``O(log^2 n)`` to ``Theta(n)`` on path-like trees — the entire reason
Section 3.3 exists.

A2 — **fractional branching schedule** (Section 2's recurrence):
flooring ``x_k`` to integers collapses early levels to plain halving
and the recursion depth degrades from ``O(log log n)`` to
``Theta(log n)``.

A3 — **plain-depth labeling strawman**: labeling by tree depth is
always Definition-1-valid (validity is the trivial part!) but its
height equals the tree height — ``Theta(n)`` on paths — which is
exactly the cost Section 3's construction eliminates.
"""

import math

from conftest import emit

from repro.analysis.harness import ExperimentReport
from repro.core import schedule_for
from repro.trees import is_valid_decomposition, low_depth_decomposition, root_tree
from repro.trees.ablation import (
    low_depth_decomposition_bfs_depth,
    low_depth_decomposition_no_binarization,
    naive_height,
)
from repro.workloads import balanced_binary, caterpillar, path_tree, random_tree


def test_a1_binarization_ablation(report_sink, benchmark):
    report = ExperimentReport(
        experiment="A1: decomposition height with vs without binarized paths",
        columns=["shape", "n", "with_binarized", "ablated", "blowup"],
    )
    for shape, (vs, es) in {
        "path": path_tree(1024),
        "caterpillar": caterpillar(1024),
        "random": random_tree(1024, seed=1),
        "balanced": balanced_binary(9),
    }.items():
        full = low_depth_decomposition(vs, es)
        ablated_label = low_depth_decomposition_no_binarization(vs, es)
        tree = root_tree(vs, es)
        # the ablated labeling is still a valid decomposition...
        assert is_valid_decomposition(tree, ablated_label), shape
        ablated = naive_height(ablated_label)
        report.rows.append(
            [shape, len(vs), full.height, ablated, ablated / full.height]
        )
    emit(report_sink, report)

    # ...but catastrophically deeper on paths:
    path_row = report.rows[0]
    assert path_row[3] >= 1024  # Theta(n)
    assert path_row[2] <= 12  # ~log2(n) with binarization

    vs, es = path_tree(1024)
    benchmark(lambda: low_depth_decomposition_no_binarization(vs, es))


def test_a2_schedule_ablation(report_sink, benchmark):
    report = ExperimentReport(
        experiment="A2: recursion depth — fractional x_k vs integer halving",
        columns=["n", "fractional_depth", "halving_depth", "ratio"],
    )

    def halving_depth(n: int, eps: float = 0.5) -> int:
        # the ablated schedule: contract by 2 each level
        base = max(4, math.ceil(n**eps))
        size, depth = n, 0
        while size > base:
            size = math.ceil(size / 2)
            depth += 1
        return depth

    for n in (10**3, 10**6, 10**9, 10**12):
        frac = schedule_for(n, eps=0.5).depth
        halv = halving_depth(n)
        report.rows.append([n, frac, halv, halv / max(1, frac)])
    emit(report_sink, report)

    # halving depth grows ~linearly in log n; fractional stays loglog:
    # between n=10^3 and 10^12 halving quadruples while fractional
    # adds only a few levels.
    first, last = report.rows[0], report.rows[-1]
    assert last[2] >= 3.5 * first[2]
    assert last[1] <= first[1] + 10

    benchmark(lambda: schedule_for(10**9, eps=0.5))


def test_a3_bfs_depth_strawman(report_sink, benchmark):
    report = ExperimentReport(
        experiment="A3: depth labeling — always valid, unboundedly deep",
        columns=["shape", "n", "valid", "depth_height", "paper_height"],
    )
    cases = {
        "path": path_tree(512),
        "caterpillar": caterpillar(512),
        "balanced": balanced_binary(8),
        "random": random_tree(512, seed=2),
    }
    for shape, (vs, es) in cases.items():
        label = low_depth_decomposition_bfs_depth(vs, es)
        tree = root_tree(vs, es)
        paper = low_depth_decomposition(vs, es)
        report.rows.append(
            [
                shape,
                len(vs),
                is_valid_decomposition(tree, label),
                naive_height(label),
                paper.height,
            ]
        )
    emit(report_sink, report)

    # depth labeling is always valid (the trivial part of Definition 1)
    assert all(row[2] for row in report.rows)
    # ...but on a path its height is Theta(n) vs the paper's ~log n
    path_row = report.rows[0]
    assert path_row[3] == 512
    assert path_row[4] <= 12

    vs, es = balanced_binary(7)
    tree = root_tree(vs, es)
    label = low_depth_decomposition_bfs_depth(vs, es)
    benchmark(lambda: is_valid_decomposition(tree, label))


def test_a4_weighted_key_scheme_ablation(report_sink, benchmark):
    """A4 — exponential clocks vs the paper's literal uniform keys.

    An erratum to the paper's phrasing: on *weighted* graphs, contracting a
    uniformly random edge permutation is not Karger's process — heavy
    intra-community edges and light cross edges are contracted at the
    same rate, so planted min cuts die early.  Exponential clocks
    (Exp(1)/w ranks) restore weight-proportional contraction.  Measured
    here as the Lemma-1 preservation frequency under both schemes.
    """
    from repro.core import draw_contraction_keys, draw_uniform_keys
    from repro.core.contraction import contract_to_size
    from repro.workloads import planted_cut

    report = ExperimentReport(
        experiment="A4: weighted contraction keys — clocks vs uniform",
        columns=["skew", "n", "trials", "clock_rate", "uniform_rate"],
    )

    def preserved(graph, side, keys, target):
        _, blocks = contract_to_size(graph, keys, target)
        return all(
            not (0 < sum(1 for v in ms if v in side) < len(ms))
            for ms in blocks.values()
        )

    trials = 60
    for skew, inner_w in (("8x", 8.0), ("2x", 2.0), ("1x", 1.0)):
        inst = planted_cut(
            64, cross_edges=3, inner_weight=inner_w, cross_weight=1.0, seed=5
        )
        g, side = inst.graph, inst.planted_side
        clock = sum(
            preserved(g, side, draw_contraction_keys(g, seed=t), 16)
            for t in range(trials)
        )
        uniform = sum(
            preserved(g, side, draw_uniform_keys(g, seed=t), 16)
            for t in range(trials)
        )
        report.rows.append(
            [skew, g.num_vertices, trials, clock / trials, uniform / trials]
        )
    emit(report_sink, report)

    rows = {r[0]: r for r in report.rows}
    # Skewed weights: clocks must dominate clearly; unweighted: parity.
    assert rows["8x"][3] > rows["8x"][4] + 0.2
    assert abs(rows["1x"][3] - rows["1x"][4]) < 0.25

    inst = planted_cut(64, cross_edges=3, inner_weight=8.0, seed=5)
    benchmark(lambda: draw_contraction_keys(inst.graph, seed=1))
