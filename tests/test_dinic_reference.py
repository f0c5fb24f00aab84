"""The iterative Dinic against its frozen recursive twin.

:mod:`dinic_reference` keeps ``DinicSolver`` as it was when its
blocking flow recursed and every call raised and restored the
process-wide recursion limit.  The current solver walks an explicit
path stack and performs the same augmentations in the same order, so
every ``FlowResult`` must match the reference exactly: the value under
``==`` and the source side as a set.  The graphs are the shared cut
corpus (connected and disconnected) and seeded random graphs with
non-dyadic weights spanning 1e-13 to 1e6, some of them disconnected,
so rounding and the ``_EPS`` residual rule both matter.  The Gomory–Hu
constructions built on either solver must then be edge-for-edge
identical, and a long path must solve without touching the recursion
limit, alone or beside other threads.
"""

import random
import sys
import threading

import pytest

import dinic_reference as ref
from cutcorpus import connected_corpus, disconnected_corpus
from repro.flow import (
    DinicSolver,
    gomory_hu_tree,
    gomory_hu_tree_contracted,
    repair_gomory_hu,
)
from repro.flow import gomory_hu as gh
from repro.graph import Graph


def random_float_graph(i: int) -> Graph:
    """A seeded random graph with non-dyadic weights from 1e-13 to 1e6;
    sparse draws leave it disconnected."""
    rng = random.Random(9100 + i)
    n = rng.randint(2, 22)
    p = rng.choice((0.08, 0.2, 0.45))
    g = Graph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                if rng.random() < 0.3:
                    w = 10.0 ** rng.uniform(-13.0, 6.0)
                else:
                    w = rng.uniform(0.05, 3.0) / 3.0
                g.add_edge(u, v, w)
    return g


GRAPHS = (
    [(name, g) for name, g in connected_corpus() + disconnected_corpus()]
    + [(f"float{i}", random_float_graph(i)) for i in range(24)]
)


def test_random_graphs_cover_disconnected_pairs():
    assert any(len(g.components()) > 1
               for name, g in GRAPHS if name.startswith("float"))


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_every_pair_matches_reference(name, graph):
    new, old = DinicSolver(graph), ref.DinicSolver(graph)
    vs = graph.vertices()
    for s in vs:
        for t in vs:
            if s == t:
                continue
            got, want = new.max_flow(s, t), old.max_flow(s, t)
            assert got.value == want.value, (s, t)
            assert got.source_side == want.source_side, (s, t)


@pytest.fixture
def reference_engine(monkeypatch):
    """Route every Gomory–Hu construction through the recursive solver."""
    def use_reference():
        monkeypatch.setitem(gh._FLOW_ENGINES, "dinic", ref.DinicSolver)
        monkeypatch.setattr(gh, "DinicSolver", ref.DinicSolver)
    return use_reference


CONNECTED = [(name, g) for name, g in GRAPHS
             if g.num_vertices >= 2 and len(g.components()) == 1]


def _mutated(graph: Graph, seed: int):
    """A copy with one edge halved and another tripled, plus the net
    changes ``(u, v, old, new)`` a repair consumes."""
    rng = random.Random(seed)
    edges = list(graph.edges())
    picks = rng.sample(edges, min(2, len(edges)))
    scale = dict(zip(((u, v) for u, v, _ in picks), (0.5, 3.0)))
    mutated = Graph(vertices=graph.vertices())
    changed = []
    for u, v, w in edges:
        new = w * scale.get((u, v), 1.0)
        mutated.add_edge(u, v, new)
        if new != w:
            changed.append((u, v, w, new))
    return mutated, changed


@pytest.mark.parametrize("name,graph", CONNECTED,
                         ids=[n for n, _ in CONNECTED])
def test_gomory_hu_constructions_match_reference(name, graph,
                                                 reference_engine):
    mutated, changed = _mutated(graph, len(name))
    new = (
        gomory_hu_tree(graph),
        gomory_hu_tree_contracted(graph),
        repair_gomory_hu(gomory_hu_tree(graph), mutated, changed),
    )
    reference_engine()
    old = (
        gomory_hu_tree(graph),
        gomory_hu_tree_contracted(graph),
        repair_gomory_hu(gomory_hu_tree(graph), mutated, changed),
    )
    assert new[0].edges == old[0].edges
    assert new[1].edges == old[1].edges
    assert (new[2] is None) == (old[2] is None)
    if new[2] is not None:
        assert new[2][0].edges == old[2][0].edges
        assert new[2][1] == old[2][1]


def _path(n: int) -> Graph:
    return Graph(edges=[(i, i + 1, 1.0 + (i % 3)) for i in range(n - 1)])


def test_long_path_never_touches_the_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"setrecursionlimit({limit}) called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    res = DinicSolver(_path(5000)).max_flow(0, 4999)
    assert res.value == 1.0
    assert res.source_side == frozenset(range(1))


def test_concurrent_flows_leave_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    path = DinicSolver(_path(5000))
    triangle = DinicSolver(Graph(edges=[(0, 1, 1.0), (1, 2, 2.0),
                                        (0, 2, 3.0)]))
    errors: list[Exception] = []
    done = threading.Event()

    def run(job):
        try:
            job()
        except Exception as exc:  # recorded, asserted below
            errors.append(exc)

    def long_flows():
        try:
            for _ in range(40):
                assert path.max_flow(0, 4999).value == 1.0
        finally:
            done.set()

    def short_flows():
        while not done.is_set():
            assert triangle.max_flow(0, 2).value == 4.0

    threads = [threading.Thread(target=run, args=(job,))
               for job in (long_flows, short_flows, short_flows)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        done.set()
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert sys.getrecursionlimit() == limit
