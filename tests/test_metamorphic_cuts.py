"""Metamorphic / property layer over the seeded random-graph corpus.

Solver-independent invariants, checked against the exact baseline
(Stoer–Wagner), the randomized baseline (Karger–Stein boosted), and
the paper's boosted Algorithm 1 — with and without the kernelization
pipeline in front:

* **consistency** — the reported weight equals the recomputed
  ``delta(S)`` of the returned partition, which is a proper non-empty
  subset of the vertex set;
* **relabeling invariance** — an isomorphic copy (same edge insertion
  order, so seeded trajectories are parallel) yields the same weight;
* **scale equivariance** — multiplying every weight by a power of two
  multiplies the min-cut weight by exactly that factor (powers of two
  make the float arithmetic exact, so this is a bit-level check even
  for the randomized solvers);
* **intra-side monotonicity** — adding a heavy edge *inside* one side
  of a minimum cut never changes the minimum-cut weight (the cut's
  weight is unchanged and no other cut got lighter).

The randomized solvers run at seeds where boosting reliably finds the
exact minimum on these instance sizes, making every check
deterministic: the suite either always passes or always fails.
"""

from __future__ import annotations

import pytest

from cutcorpus import connected_corpus, relabel, scale
from repro.baselines import karger_stein_boosted, stoer_wagner_min_cut
from repro.core import ampc_min_cut_boosted
from repro.workloads import planted_cut


def _sw(graph):
    return stoer_wagner_min_cut(graph)


def _ks(graph):
    return karger_stein_boosted(graph, seed=5)


def _ampc(graph):
    return ampc_min_cut_boosted(graph, seed=5, trials=4).cut


def _ampc_kernelized(graph):
    return ampc_min_cut_boosted(
        graph, seed=5, trials=4, preprocess="safe"
    ).cut


SOLVERS = [
    ("stoer-wagner", _sw),
    ("karger-stein", _ks),
    ("ampc", _ampc),
    ("ampc+preprocess", _ampc_kernelized),
]
SOLVER_IDS = [name for name, _ in SOLVERS]

CORPUS = connected_corpus()
CORPUS_IDS = [name for name, _ in CORPUS]

# The perturbation metamorphics run the randomized solvers twice per
# instance; restrict them to a representative slice to keep the suite
# fast.
PERTURB = [
    (n, g) for n, g in CORPUS
    if n in {"planted16", "planted24", "cycle12", "grid4x5", "wheel9",
             "barbell10", "star7", "triangle"}
]
PERTURB_IDS = [n for n, _ in PERTURB]


# ----------------------------------------------------------------------
# P1: reported weight == recomputed delta(S); side is a proper subset
# ----------------------------------------------------------------------
@pytest.mark.parametrize("solver_name,solver", SOLVERS, ids=SOLVER_IDS)
@pytest.mark.parametrize("name,graph", CORPUS, ids=CORPUS_IDS)
def test_reported_weight_matches_partition(name, graph, solver_name, solver):
    cut = solver(graph)
    side = set(cut.side)
    assert side and side < set(graph.vertices())
    assert graph.cut_weight(cut.side) == cut.weight


# ----------------------------------------------------------------------
# P2: invariance under vertex relabeling
# ----------------------------------------------------------------------
@pytest.mark.parametrize("solver_name,solver", SOLVERS, ids=SOLVER_IDS)
@pytest.mark.parametrize("name,graph", PERTURB, ids=PERTURB_IDS)
def test_relabeling_invariance(name, graph, solver_name, solver):
    relabeled, phi = relabel(graph)
    original = solver(graph)
    mapped = solver(relabeled)
    assert mapped.weight == original.weight
    # the relabeled run's side is a valid cut of the relabeled graph
    # mapping back to a cut of the original with the same weight
    back = {v for v in graph.vertices() if phi[v] in mapped.side}
    assert graph.cut_weight(back) == original.weight


# ----------------------------------------------------------------------
# P3: exact equivariance under uniform weight scaling
# ----------------------------------------------------------------------
@pytest.mark.parametrize("factor", [4.0, 0.25])
@pytest.mark.parametrize("solver_name,solver", SOLVERS, ids=SOLVER_IDS)
@pytest.mark.parametrize("name,graph", PERTURB, ids=PERTURB_IDS)
def test_uniform_scaling_equivariance(name, graph, solver_name, solver, factor):
    base = solver(graph)
    scaled = solver(scale(graph, factor))
    assert scaled.weight == base.weight * factor


# ----------------------------------------------------------------------
# P4: adding an intra-side heavy edge never changes the min-cut weight
# ----------------------------------------------------------------------
@pytest.mark.parametrize("solver_name,solver", SOLVERS, ids=SOLVER_IDS)
@pytest.mark.parametrize("name,graph", PERTURB, ids=PERTURB_IDS)
def test_intra_side_heavy_edge_is_invisible(name, graph, solver_name, solver):
    base = solver(graph)
    # reinforce inside the *larger* side of an exact minimum cut (the
    # perturbation must not touch the cut itself)
    exact_side = stoer_wagner_min_cut(graph).side
    big = max(
        (exact_side, frozenset(graph.vertices()) - exact_side), key=len
    )
    members = sorted(big, key=lambda v: graph.index_of(v))
    if len(members) < 2:
        pytest.skip("degenerate side: nowhere to hide an intra-side edge")
    heavier = graph.copy()
    heavier.add_edge(members[0], members[1], 64.0)
    assert solver(heavier).weight == base.weight


# ----------------------------------------------------------------------
# P5: planted instances — the planted optimum is found and stable
# ----------------------------------------------------------------------
@pytest.mark.parametrize("solver_name,solver", SOLVERS, ids=SOLVER_IDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_cut_recovered(solver_name, solver, seed):
    inst = planted_cut(20, seed=seed)
    cut = solver(inst.graph)
    assert cut.weight == inst.planted_weight
    assert cut.side in (
        inst.planted_side,
        frozenset(inst.graph.vertices()) - inst.planted_side,
    )
