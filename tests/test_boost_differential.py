"""Differential harness: the served ``/mincut`` and ``/kcut`` equal the library.

The library (``ampc_min_cut_boosted``, ``apx_split_kcut``) and the
service (:class:`~repro.service.CutService`, whose trials run on its
:class:`~repro.service.TrialExecutor`) share one booster
(:mod:`repro.core.boost`).  This file pins that they also agree, on
every instance of the shared ``cutcorpus`` plus its disconnected graphs,
at every kernelization level, with default and explicit trial counts
and two seeds:

* min cut: ``weight``, ``side``, ``rounds`` and ``trials`` (the trials
  the library ran when the request omits the count);
* k-cut at k = 2 and 3: ``weight``, ``parts`` and ``rounds``;
* a ``workers=2`` leg, where trials run on a process pool;
* inputs one side rejects, the other rejects too.

It also pins the booster's trial-count check on both surfaces
(``repro-cut``'s is in ``tests/test_cli.py``).
"""

import pytest

import repro.core.mincut as core_mincut
from cutcorpus import connected_corpus, disconnected_corpus
from repro.core import ampc_min_cut_boosted, apx_split_kcut
from repro.service import CutService
from repro.service.ops import vertex_list
from repro.workloads import planted_cut

GRAPHS = connected_corpus() + disconnected_corpus()
LEVELS = ("off", "safe", "aggressive")
SEEDS = (0, 5)


@pytest.fixture(scope="module")
def services():
    """One service per kernelization level, every corpus graph resident."""
    out = {}
    for level in LEVELS:
        svc = CutService(preprocess=level)
        for name, graph in GRAPHS:
            svc.register(name, graph)
        out[level] = svc
    yield out
    for svc in out.values():
        svc.close()


def _outcome(fn):
    """``fn()``'s value, or the ValueError it raised (as its type)."""
    try:
        return fn()
    except ValueError:
        return ValueError


def _library_mincut(graph, level, trials, seed, monkeypatch):
    """The library's answer as a served payload would state it."""
    ran = []

    def counted(*args, **kwargs):
        ran.append(kwargs["seed"])
        return solve(*args, **kwargs)

    solve = core_mincut.ampc_min_cut
    monkeypatch.setattr(core_mincut, "ampc_min_cut", counted)
    try:
        res = ampc_min_cut_boosted(
            graph, trials=trials, seed=seed, preprocess=level
        )
    finally:
        monkeypatch.setattr(core_mincut, "ampc_min_cut", solve)
    return {
        "weight": res.weight,
        "side": vertex_list(res.cut.side),
        "rounds": res.ledger.rounds,
        "trials": len(ran) if trials is None else trials,
    }


def _served_mincut(svc, name, trials, seed):
    out = svc.mincut(name, trials=trials, seed=seed)
    return {key: out[key] for key in ("weight", "side", "rounds", "trials")}


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("trials", [None, 2])
@pytest.mark.parametrize("seed", SEEDS)
def test_served_mincut_equals_library(services, level, trials, seed, monkeypatch):
    mismatches = []
    for name, graph in GRAPHS:
        served = _outcome(lambda: _served_mincut(services[level], name, trials, seed))
        library = _outcome(
            lambda: _library_mincut(graph, level, trials, seed, monkeypatch)
        )
        if served != library:
            mismatches.append((name, served, library))
    assert mismatches == []


def test_solved_kernel_reports_zero_rounds_on_both_surfaces(services):
    _, graph = disconnected_corpus()[0]
    library = ampc_min_cut_boosted(graph, seed=5, preprocess="safe")
    served = services["safe"].mincut(disconnected_corpus()[0][0], seed=5)
    assert library.ledger.rounds == served["rounds"] == 0
    assert library.weight == served["weight"] == 0.0


def _library_kcut(graph, k, level, seed):
    res = apx_split_kcut(graph, k, seed=seed, preprocess=level)
    parts = sorted(res.kcut.parts, key=len, reverse=True)
    return {
        "weight": res.weight,
        "parts": [vertex_list(part) for part in parts],
        "rounds": res.ledger.rounds,
    }


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", SEEDS)
def test_served_kcut_equals_library(services, level, k, seed):
    mismatches = []
    for name, graph in GRAPHS:
        served = _outcome(lambda: services[level].kcut(name, k, seed=seed))
        if served is not ValueError:
            served = {key: served[key] for key in ("weight", "parts", "rounds")}
        library = _outcome(lambda: _library_kcut(graph, k, level, seed))
        if served != library:
            mismatches.append((name, served, library))
    assert mismatches == []


def test_pooled_service_equals_library(monkeypatch):
    """``workers=2``: trials run on the pool, the answer does not move."""
    with CutService(workers=2) as svc:
        for name, graph in connected_corpus()[:6]:
            svc.register(name, graph)
            for level in ("off", "safe"):
                served = svc.mincut(name, trials=3, seed=1, preprocess=level)
                library = _library_mincut(graph, level, 3, 1, monkeypatch)
                assert {k: served[k] for k in library} == library, name
        assert svc.executor.stats()["pool_live"]


# ----------------------------------------------------------------------
# the trial-count check: one rule, library and service alike
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trials", [0, -1])
def test_library_rejects_fewer_than_one_trial(trials):
    graph = planted_cut(16, seed=1).graph
    with pytest.raises(ValueError, match="need at least one trial"):
        ampc_min_cut_boosted(graph, trials=trials)
    with pytest.raises(ValueError, match="need at least one trial"):
        ampc_min_cut_boosted(graph, trials=trials, preprocess="safe")
    with CutService() as svc:
        svc.register("g", graph)
        with pytest.raises(ValueError, match="need at least one trial"):
            svc.mincut("g", trials=trials)

