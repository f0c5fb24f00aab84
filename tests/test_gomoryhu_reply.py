"""`/gomoryhu` from the tree: the star rule and the union pass.

``repro.flow.cut_tree_tables`` derives the canonical ``tree`` (the star
rule) and the ``matrix`` / ``bottleneck`` tables (one union pass) from
any exact cut forest's n - 1 edges.  These tests hold it, and the reply
``repro.service.ops.gomoryhu_reply`` builds from it, byte-identical to
the frozen builder in ``tests/gomoryhu_reference.py`` (an n×n value
matrix, a Kruskal over all n²/2 pairs, one bottleneck walk per source)
on fresh, cold per-component, masked-then-rebuilt and
repaired-then-rebuilt trees.
"""

from __future__ import annotations

import json

import pytest
from cutcorpus import connected_corpus, disconnected_corpus
from gomoryhu_reference import (
    reference_all_pairs,
    reference_reply,
    reference_values,
)

from repro.flow import cut_tree_tables, gomory_hu_tree
from repro.graph import Graph
from repro.service import CutService
from repro.service.oracle import CutOracle
from repro.service.ops import gomoryhu_reply
from repro.workloads import clustered_community, planted_cut

REPLY_FIELDS = ("num_vertices", "connected", "components", "vertices",
                "matrix", "tree", "bottleneck", "sides")

CORPUS = connected_corpus() + disconnected_corpus()
LARGER = [
    ("clustered64", lambda: clustered_community(64, intra_p=24 / 64,
                                                seed=1).graph),
    ("planted64", lambda: planted_cut(64, seed=9).graph),
    ("planted256", lambda: planted_cut(256, seed=3).graph),
]


def _same(reply: dict, reference: dict) -> None:
    """Field-for-field equal, and the same JSON bytes."""
    got = {k: reply[k] for k in REPLY_FIELDS}
    assert got == reference
    assert json.dumps(got) == json.dumps(reference)


# ----------------------------------------------------------------------
# The served reply against the frozen builder
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sides", [False, True])
@pytest.mark.parametrize("name,graph", CORPUS, ids=[n for n, _ in CORPUS])
def test_served_reply_matches_reference(name, graph, sides):
    with CutService() as svc:
        svc.register("g", graph)
        reply = svc.gomoryhu("g", sides=sides)
    _same(reply, reference_reply(graph, reference_values(graph), sides))


@pytest.mark.parametrize("sides", [False, True])
@pytest.mark.parametrize("name,make", LARGER, ids=[n for n, _ in LARGER])
def test_reply_matches_reference_on_served_shapes(name, make, sides):
    graph = make()
    tree = gomory_hu_tree(graph)
    _same(gomoryhu_reply(graph, [tree], sides=sides),
          reference_reply(graph, reference_all_pairs(tree), sides))


def test_tree_view_matches_reference_walk():
    for _, graph in connected_corpus():
        tree = gomory_hu_tree(graph)
        assert tree.all_pairs_min_cuts() == reference_all_pairs(tree)


# ----------------------------------------------------------------------
# Masked and repaired oracle trees
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sides", [False, True])
def test_repaired_tree_serves_the_reference_reply(sides):
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
    assert oracle.mask_hits == hits and oracle.builds == 2  # rebuilt
    reference = reference_reply(g, reference_values(g), sides)
    _same(gomoryhu_reply(g, [tree], sides=sides), reference)
    _same(reference_reply(g, reference_all_pairs(tree), sides), reference)


@pytest.mark.parametrize("sides", [False, True])
def test_masked_tree_serves_the_reference_reply(sides):
    g = planted_cut(18, seed=5).graph
    oracle = CutOracle(g)
    oracle.all_pairs()
    u, v, w = next(iter(g.edges()))
    g.set_edge_weight(u, v, w * 2)
    assert oracle.apply_delta(
        g, [(u, v, w, w * 2)], has_new_vertices=False) == "masked"
    # all_pairs settles the mask; the changed pair's own cuts are
    # touched, so the whole matrix cannot certify and the answer comes
    # from a rebuilt tree
    tree = oracle.all_pairs()
    assert oracle.mask_rebuilds == 1 and oracle.mask_hits == 0
    _same(gomoryhu_reply(g, [tree], sides=sides),
          reference_reply(g, reference_values(g), sides))


def test_mutate_stream_replies_match_reference():
    g = clustered_community(32, intra_p=0.5, seed=2).graph
    edges = list(g.edges())
    with CutService() as svc:
        svc.register("g", g.copy())
        svc.gomoryhu("g")
        for step, (u, v, w) in enumerate(edges[:12]):
            new = w * 2 if step % 2 == 0 else w / 2
            svc.mutate("g", reweights=[[u, v, new]])
            g.set_edge_weight(u, v, new)
            svc.stcut("g", s=u, t=v)  # settles: a halving repairs
            _same(svc.gomoryhu("g"),
                  reference_reply(g, reference_values(g), False))
        stats = next(iter(svc.stats()["oracles"].values()))
    assert stats["repairs"] > 0


# ----------------------------------------------------------------------
# The star rule and the union pass on hand-made forests
# ----------------------------------------------------------------------
def _reference_tables(n, edges):
    """The frozen builder's tree / matrix / bottleneck for ``edges``,
    an exact cut forest on the integers ``0 .. n-1``."""
    graph = Graph(vertices=range(n),
                  edges=[(i, j, w) for i, j, w in edges])
    values = {}
    for comp in graph.components():
        comp_edges = [(i, j, w) for i, j, w in edges if i in comp]
        if comp_edges:
            sub = gomory_hu_tree(Graph(edges=comp_edges))
            for u, row in reference_all_pairs(sub).items():
                values.setdefault(u, {}).update(row)
    reply = reference_reply(graph, values, False)
    tree = [(r["u"], r["v"], r["weight"]) for r in reply["tree"]]
    return tree, reply["matrix"], reply["bottleneck"]


def test_star_rule_equal_weights_make_a_star_at_the_least_index():
    path = [(3, 2, 1.0), (2, 1, 1.0), (1, 0, 1.0), (0, 4, 1.0)]
    tree, matrix, bottleneck = cut_tree_tables(5, path)
    assert tree == [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)]
    assert matrix[2][3] == 1.0 and matrix[3][3] is None
    # every path runs through the hub; ties go to the lowest index
    assert bottleneck[2][3] == 1 and bottleneck[3][4] == 2


def test_star_rule_on_a_weighted_path():
    path = [(0, 1, 3.0), (1, 2, 1.0), (2, 3, 2.0)]
    tree, matrix, bottleneck = cut_tree_tables(4, path)
    assert tree == [(0, 1, 3.0), (2, 3, 2.0), (0, 2, 1.0)]
    assert matrix[1] == [3.0, None, 1.0, 1.0]
    assert bottleneck[1] == [0, None, 2, 2]
    assert (tree, matrix, bottleneck) == _reference_tables(4, path)


def test_two_tie_groups_take_the_lowest_index_bottleneck():
    # weight 2 joins {0, 1} and {3, 4, 5}; weight 1 joins those and {2}
    forest = [(1, 0, 2.0), (4, 3, 2.0), (5, 4, 2.0),
              (3, 1, 1.0), (2, 5, 1.0)]
    tree, matrix, bottleneck = cut_tree_tables(6, forest)
    assert tree == [(0, 1, 2.0), (3, 4, 2.0), (3, 5, 2.0),
                    (0, 2, 1.0), (0, 3, 1.0)]
    # 2 - 0 - 3 - 5 crosses two weight-1 edges: the lower index wins
    assert bottleneck[2][5] == bottleneck[5][2] == 3
    assert bottleneck[1][4] == 4 and bottleneck[4][5] == 1
    assert matrix[4][5] == 2.0 and matrix[1][4] == 1.0
    assert (tree, matrix, bottleneck) == _reference_tables(6, forest)


def test_forest_with_isolated_vertices_leaves_cross_cells_null():
    forest = [(0, 2, 5.0), (3, 4, 1.5)]
    tree, matrix, bottleneck = cut_tree_tables(6, forest)
    assert tree == [(0, 2, 5.0), (3, 4, 1.5)]
    assert matrix[0] == [None, None, 5.0, None, None, None]
    assert bottleneck[4] == [None, None, None, 1, None, None]
    assert matrix[1] == bottleneck[1] == [None] * 6
    assert (tree, matrix, bottleneck) == _reference_tables(6, forest)
