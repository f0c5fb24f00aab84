"""Streaming differential harness for fully dynamic cut maintenance.

The serving layer now claims to *survive* arbitrary mixed-sign deltas:
the retained Gomory-Hu oracle repairs locally (``repair_gomory_hu``),
kernels refresh incrementally (``refresh_kernel``), and every answer is
still exactly what a cold service would compute from scratch.  This
file is the proof harness the claim ships with:

* **scripted interleavings** of mixed-sign mutations and
  mincut / stcut / kernelize queries over the shared ``cutcorpus``
  instances, where after *every* query the warm answer is compared
  bit-identical (``==`` on the full payload minus volatile keys) to a
  cold service that re-uploads the reference edge list at that step;
* **seeded-random interleavings** of the same shape, decreases
  included, over several corpus instances;
* a **localized-decrease stream** on a larger planted instance that
  pins the performance claim: warm per-step work is sublinear — the
  repair path is taken and recomputes ``<< n`` tree edges per delta;
* a ``DYNAMIC_STREAM_SUMMARY`` artifact (via the session fixture in
  ``conftest.py``) recording repair-vs-rebuild counts per stream, so
  CI can show the repair path is actually exercised, not just defined.

Weights stay dyadic throughout, so bit-identity is meaningful.
"""

import random
from collections import defaultdict

import pytest

from cutcorpus import connected_corpus
from repro.service import CutService
from repro.workloads import planted_cut
from test_mutation import EdgeListModel, _comparable, two_triangles


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _oracle_counters(service) -> dict:
    keys = ("builds", "repairs", "repair_fallbacks", "repaired_edges",
            "mask_hits", "mask_rebuilds")
    totals = dict.fromkeys(keys, 0)
    for row in service.stats()["oracles"].values():
        for k in keys:
            totals[k] += row[k]
    return totals


def _compare_query(warm, model, kind, params) -> None:
    """One query, answered warm and by a cold re-upload; must be ==."""
    with CutService() as cold:
        cold.register("c", model.build())
        if kind == "stcut":
            a = warm.stcut("w", params["s"], params["t"])
            b = cold.stcut("c", params["s"], params["t"])
        elif kind == "mincut":
            a = warm.mincut("w", **params)
            b = cold.mincut("c", **params)
        elif kind == "kernelize":
            a = warm.kernelize("w", **params)
            b = cold.kernelize("c", **params)
        elif kind == "gomoryhu":
            a = warm.gomoryhu("w", **params)
            b = cold.gomoryhu("c", **params)
        else:  # pragma: no cover
            raise ValueError(kind)
        assert _comparable(a) == _comparable(b), (kind, params, a, b)


def _run_stream(initial, events, *, name, sink, model=None):
    """Play an interleaving; record the repair-vs-rebuild outcome.

    ``events`` may be a list or a generator; a generator that consults
    ``model`` sees the state *before* each event is applied (the driver
    advances the shared model right after yielding a mutation).
    """
    model = EdgeListModel(initial) if model is None else model
    queries = mutations = 0
    with CutService() as warm:
        warm.register("w", model.build())
        for event in events:
            if event[0] == "mutate":
                warm.mutate("w", deltas=[event[1]])
                model.apply(event[1])
                mutations += 1
            else:
                _, kind, params = event
                _compare_query(warm, model, kind, params)
                queries += 1
        counters = _oracle_counters(warm)
    sink.append({
        "stream": name,
        "steps": mutations + queries,
        "mutations": mutations,
        "queries": queries,
        "identical": True,  # every _compare_query above asserted ==
        **counters,
    })
    return counters


# ----------------------------------------------------------------------
# Scripted interleavings over the corpus
# ----------------------------------------------------------------------
def _scripted_events(graph) -> list:
    """A fixed mixed-sign interleaving valid on any corpus instance
    with n >= 4: reinforce, weaken, remove-and-readd, plus the three
    query kinds between every mutation."""
    vs = graph.vertices()
    rows = [[u, v, w] for u, v, w in graph.edges()]
    u0, v0, w0 = rows[0]
    u1, v1, w1 = rows[len(rows) // 2]
    # a non-adjacent pair: the scripted add below creates a brand-new
    # row, so the matching remove restores exactly the prior graph
    present = {frozenset((u, v)) for u, v, _ in rows}
    s, t = next(
        (a, b)
        for a in vs
        for b in reversed(vs)
        if a != b and frozenset((a, b)) not in present
    )
    q = [
        ("query", "mincut", {"seed": 3, "trials": 2, "preprocess": "safe"}),
        ("query", "stcut", {"s": s, "t": t}),
        ("query", "kernelize", {"level": "safe"}),
        ("query", "gomoryhu", {"sides": True}),
    ]
    return [
        *q,
        ("mutate", {"adds": [[u0, v0, 0.5]]}),              # increase
        *q,
        ("mutate", {"reweights": [[u0, v0, w0 * 0.5]]}),    # decrease
        *q,
        ("mutate", {"reweights": [[u1, v1, w1 + 0.5]],      # mixed signs
                    "adds": [[s, t, 0.25]]}),
        *q,
        ("mutate", {"removes": [[s, t]]}),                  # back out the add
        *q,
        ("mutate", {"reweights": [[u0, v0, w0 * 0.25]]}),   # decrease again
        *q,
    ]


@pytest.mark.parametrize(
    "name", ["planted16", "er14w", "grid4x5", "wheel9"]
)
def test_scripted_stream_bit_identical(name, dynamic_stream_summary):
    graph = dict(connected_corpus())[name]
    counters = _run_stream(
        graph,
        _scripted_events(graph),
        name=f"scripted:{name}",
        sink=dynamic_stream_summary,
    )
    # the stream contains genuine decreases on a warm oracle: the
    # repair machinery must have been exercised, one way or the other
    assert counters["repairs"] + counters["repair_fallbacks"] >= 1


# ----------------------------------------------------------------------
# Seeded-random interleavings (mixed-sign mutations included)
# ----------------------------------------------------------------------
def _random_stream(rng, model, steps: int):
    """Yield events one at a time, generating mutations against the
    *current* model state so reweights/removes always hit live rows."""
    for i in range(steps):
        graph = model.build()
        vs = graph.vertices()
        connected = model.connected()
        if rng.random() < 0.45 and model.rows:
            kind = rng.choice(["add", "increase", "decrease", "remove"])
            row = model.rows[rng.randrange(len(model.rows))]
            u, v, w = row
            if kind == "add":
                x = rng.choice(vs)
                y = rng.choice(vs + [max(vs) + 1])  # sometimes a new vertex
                if x == y:
                    y = max(vs) + 1
                yield ("mutate", {"adds": [[x, y, rng.choice([0.5, 1.0])]]})
            elif kind == "increase":
                yield ("mutate", {"reweights": [[u, v, w + 0.5]]})
            elif kind == "decrease":
                yield ("mutate", {"reweights": [[u, v, w * 0.5]]})
            else:
                yield ("mutate", {"removes": [[u, v]]})
        else:
            choices = [("mincut", {"seed": rng.randrange(3), "trials": 2,
                                   "preprocess": rng.choice(["safe",
                                                             "aggressive"])}),
                       ("kernelize", {"level": "safe"}),
                       ("gomoryhu", {})]
            if connected and len(vs) >= 3:
                s = rng.choice(vs)
                t = rng.choice([x for x in vs if x != s])
                choices.append(("stcut", {"s": s, "t": t}))
            kind, params = choices[rng.randrange(len(choices))]
            yield ("query", kind, params)


@pytest.mark.parametrize("name,seed", [
    ("planted16", 11), ("regular16", 12), ("powerlaw20", 13),
])
def test_random_stream_bit_identical(name, seed, dynamic_stream_summary):
    graph = dict(connected_corpus())[name]
    # one shared model: the generator reads it to produce valid deltas
    # against live rows, the driver advances it after each mutation
    model = EdgeListModel(graph)
    rng = random.Random(seed)
    events = []

    def _recorded():
        for event in _random_stream(rng, model, steps=16):
            events.append(event)
            yield event

    counters = _run_stream(
        graph,
        _recorded(),
        name=f"random:{name}:{seed}",
        sink=dynamic_stream_summary,
        model=model,
    )
    assert sum(1 for e in events if e[0] == "mutate") >= 3
    assert sum(1 for e in events if e[0] == "query") >= 3
    assert counters["builds"] >= 1


# ----------------------------------------------------------------------
# The performance claim: localized decreases repair << n tree edges
# ----------------------------------------------------------------------
def test_localized_decreases_repair_sublinearly(dynamic_stream_summary):
    """Mild decreases on well-connected pairs of a heterogeneous
    planted instance: the oracle must take the *repair* path (not
    rebuild), and each repair must recompute far fewer than n tree
    edges — the whole point of recording cut bipartitions."""
    n = 48
    graph = planted_cut(n, inner_degree=8, seed=5).graph
    model = EdgeListModel(graph)
    degs: dict = defaultdict(float)
    for u, v, w in model.rows:
        degs[u] += w
        degs[v] += w
    # the best-connected edges: decreases here keep the L-guard high,
    # so untouched subtrees survive verbatim
    targets = sorted(
        model.rows, key=lambda r: min(degs[r[0]], degs[r[1]]), reverse=True
    )[:4]
    vs = graph.vertices()
    events = [("query", "stcut", {"s": vs[0], "t": vs[-1]})]  # warm the tree
    for u, v, w in targets:
        events.append(("mutate", {"reweights": [[u, v, w - 0.25]]}))
        events.append(("query", "stcut", {"s": vs[0], "t": vs[-1]}))
        events.append(("query", "stcut", {"s": vs[1], "t": vs[-2]}))
    counters = _run_stream(
        graph,
        events,
        name=f"localized:planted{n}",
        sink=dynamic_stream_summary,
    )
    assert counters["repairs"] >= 3           # repair taken on the majority
    assert counters["repairs"] > counters["repair_fallbacks"]
    # sublinear per-step work: on average a repair recomputed a small
    # fraction of the n-1 tree edges (the probe above measured 1-4)
    assert counters["repaired_edges"] < counters["repairs"] * (n // 4)


# ----------------------------------------------------------------------
# Regression: reweight-to-zero disconnect must flow through /gomoryhu
# ----------------------------------------------------------------------
def test_gomoryhu_disconnect_via_zero_reweight(dynamic_stream_summary):
    """A reweight-to-zero delta that severs the only bridge must make a
    warm ``/gomoryhu`` report the cross-component pairs as absent
    (``null`` matrix entries, ``connected: false``) exactly like a cold
    rebuild — the warm oracle's repaired tree must not leak a stale
    finite value for a pair that no longer has a finite min cut."""
    graph = two_triangles()  # triangles 0-1-2 and 3-4-5, bridge (2, 3)
    model = EdgeListModel(graph)
    events = [
        ("query", "gomoryhu", {"sides": True}),     # warm the oracle
        ("mutate", {"reweights": [[2, 3, 0.0]]}),   # sever the bridge
        ("query", "gomoryhu", {"sides": True}),     # must match cold
        ("query", "kernelize", {"level": "safe"}),
        ("mutate", {"adds": [[2, 3, 1.0]]}),        # reconnect
        ("query", "gomoryhu", {"sides": True}),
        ("query", "mincut", {"seed": 0, "trials": 1}),
    ]
    _run_stream(
        graph,
        events,
        name="disconnect:two_triangles",
        sink=dynamic_stream_summary,
    )
    # independent shape check on the disconnected payload itself
    with CutService() as svc:
        svc.register("g", two_triangles())
        svc.gomoryhu("g")                            # warm
        svc.mutate("g", reweights=[[2, 3, 0.0]])
        payload = svc.gomoryhu("g")
        assert payload["connected"] is False
        assert payload["components"] == 2
        vs = payload["vertices"]
        i0, i3 = vs.index(0), vs.index(3)
        i1 = vs.index(1)
        assert payload["matrix"][i0][i3] is None
        assert payload["matrix"][i0][i1] == 4.0      # intra-triangle cut
        svc.mutate("g", adds=[[2, 3, 1.0]])
        assert svc.gomoryhu("g")["connected"] is True
