"""The served ops, each declared once.

One :class:`OpSpec` per POST op that reaches
:class:`~repro.service.service.CutService`.  A spec holds the op's
typed wire params with their defaults, its result-cache key fields,
whether identical in-flight requests may coalesce, how a reply moves
the op's shard route, and the functions that compute it.  The service
methods and their shared skeleton, wire dispatch, ``/batch``, the
frontend's coalescing keys, :class:`~repro.service.frontend.ShardPool`
routing and the ``repro-cut query`` verbs and flags all read
:data:`OPS`; nothing else restates an op's params.

Every op is routed by its ``graph`` field, the first param of every
spec.  ``POST /graphs`` (registration, routed by content) is not a
table op.

Params are strictly typed.  A bool field takes only ``true`` or
``false``, an int field rejects booleans and fractional numbers,
``null`` means the default, and an unknown field is an error that names
it:

>>> OPS["sparsestcut"].bind({"graph": "g", "seed": 3})
{'graph': 'g', 'seed': 3, 'trials': 2, 'kernel': False}
>>> OPS["gomoryhu"].bind({"graph": "g", "sides": "false"})
Traceback (most recent call last):
    ...
repro.service.ops.BadRequest: field 'sides' must be a boolean, got 'false'
>>> OPS["mincut"].bind({"graph": "g", "preprocces": "safe"})
Traceback (most recent call last):
    ...
repro.service.ops.BadRequest: unknown field 'preprocces' for mincut
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

from ..graph import DSU
from ..preprocess import LEVELS, validate_level
from .deltas import GraphDelta, MutationRecord, resolve_vertex
from .executor import default_trials


class BadRequest(ValueError):
    """A malformed request; the wire answers it with HTTP 400."""


#: ``Param.default`` of a field the request must carry.
REQUIRED = object()

#: param kind -> (JSON types bound as they are, all types accepted,
#: what an error asks for)
_KINDS = {
    "str": ({str}, str, "a string"),
    "int": ({int}, numbers.Integral, "an integer"),
    "count": (set(), numbers.Integral, "a non-negative integer"),
    "float": ({float}, numbers.Real, "a number"),
    "bool": ({bool}, bool, "a boolean"),
    "vertex": ({int, str}, (str, numbers.Integral), "a vertex id"),
    "level": (set(), str, "a kernelization level"),
    "list": ({list}, (list, tuple), "a list"),
}


@dataclass(frozen=True)
class Param:
    """One typed field of an op's request (``kind`` is a :data:`_KINDS`
    key).  A ``None`` default means the value is settled per request,
    e.g. mincut's trial count follows the kernel size."""

    name: str
    kind: str
    default: Any = REQUIRED
    help: str = ""

    def coerce(self, value):
        """``value`` checked against ``kind``; raises :class:`BadRequest`
        (a boolean is only ever a bool: never a number, string or id)."""
        if self.kind == "level" and value in LEVELS:
            return value  # already canonical
        _, types, want = _KINDS[self.kind]
        integral = self.kind in ("int", "count")
        if integral and isinstance(value, float) and value.is_integer():
            value = int(value)
        if (
            not isinstance(value, types)
            or (isinstance(value, bool) and self.kind != "bool")
            or (self.kind == "count" and value < 0)
        ):
            raise BadRequest(
                f"field {self.name!r} must be {want}, got {value!r}"
            )
        if integral:
            return int(value)
        if self.kind == "float":
            return float(value)
        if self.kind == "level":
            return validate_level(value)
        return value


@dataclass(frozen=True)
class OpSpec:
    """One served op.

    ``algorithm`` marks a *query*, run by the skeleton
    :meth:`CutService._serve`: ``prepare(service, entry, params)``
    builds its kernel, ``compute(service, entry, params, prepared)``
    returns its payload fields.  Other ops are ``compute(service,
    params)`` and own their whole payload and spans.  ``key`` lists
    the params that, with the fingerprint, key the result cache
    (``None``: not cached); ``rekey`` regenerates a result a mutation
    swept, under the new fingerprint, when that is sound.  ``route`` is
    how a 200 moves the graph's shard route: ``"keep"``, ``"rekey"``
    (to the reply's fingerprint) or ``"drop"``.
    """

    name: str
    params: tuple[Param, ...]
    compute: Callable
    algorithm: str | None = None
    key: tuple[str, ...] | None = None
    coalesce: bool = False
    route: str = "keep"
    prepare: Callable | None = None
    rekey: Callable | None = None

    @cached_property
    def _names(self) -> frozenset:
        return frozenset(p.name for p in self.params)

    @cached_property
    def _plan(self) -> tuple:
        # (name, JSON types bound without a coerce call, param)
        return tuple((p.name, _KINDS[p.kind][0], p) for p in self.params)

    def bind(self, fields: dict) -> dict:
        """Typed params with defaults filled in, in declaration order."""
        if not self._names.issuperset(fields):
            unknown = sorted(map(str, fields.keys() - self._names))
            names = ", ".join(repr(k) for k in unknown)
            raise BadRequest(f"unknown field {names} for {self.name}")
        bound = {}
        for name, exact, param in self._plan:
            value = fields.get(name)
            if type(value) in exact:
                pass
            elif value is not None:
                value = param.coerce(value)
            elif param.default is REQUIRED:
                raise BadRequest(f"missing required field {name!r}")
            else:
                value = param.default
            bound[name] = value
        return bound


def parse_request(op, body: dict) -> tuple[OpSpec, dict]:
    """Wire op name + JSON object body -> (spec, bound params)."""
    spec = OPS.get(op) if isinstance(op, str) else None
    if spec is None:
        raise BadRequest(f"unknown operation {op!r}")
    return spec, spec.bind(body)


def vertex_list(side) -> list:
    """A cut side as a JSON-able, deterministically ordered list."""
    return sorted(side, key=lambda v: (type(v).__name__, repr(v)))


# ----------------------------------------------------------------------
# mincut — the paper's Algorithm 1, boosted
# ----------------------------------------------------------------------
def _mincut_prepare(svc, entry, p):
    level = p["preprocess"] = p["preprocess"] or svc.preprocess
    kernel = None
    if level != "off":
        with svc.tracer.span("kernel") as sp:
            kernel = svc.store.kernel_for(entry, level)
            if sp:
                sp.set(
                    level=level,
                    solved=kernel.is_solved,
                    shrink=kernel.graph.num_vertices
                    / max(1, entry.num_vertices),
                )
    if p["trials"] is None:
        if kernel is not None and kernel.is_solved:
            p["trials"] = 0
        else:
            target = kernel.graph if kernel is not None else entry.graph
            p["trials"] = default_trials(max(2, target.num_vertices))
    return kernel


def _mincut(svc, entry, p, kernel):
    if kernel is not None and kernel.is_solved:
        cut, rounds = kernel.trivial_cut(), 0
    else:
        result = svc.executor.run_mincut(
            entry.graph if kernel is None else kernel.graph,
            eps=p["eps"], trials=p["trials"], seed=p["seed"],
        )
        cut, rounds = result.cut, result.ledger.rounds
        if kernel is not None:
            with svc.tracer.span("lift") as sp:
                cut = kernel.lift(cut.side)
                if sp:
                    sp.set(side=len(cut.side))
    out = {
        "weight": cut.weight, "side": vertex_list(cut.side), "rounds": rounds,
        "trials": p["trials"], "seed": p["seed"], "eps": p["eps"],
    }
    if kernel is not None:
        out["preprocess"] = kernel.stats()
    return out


def _mincut_rekey(svc, p, new_fp):
    """Only results answered by a kernel that survived revalidation
    *solved* qualify: the cold path would answer straight from
    ``kernel.trivial_cut()`` (rounds 0, no solver, no randomness), so
    rebuilding the payload from the bit-identical revalidated kernel
    reproduces the recomputation exactly."""
    if p["preprocess"] == "off":
        return None
    kernel = svc.store.cached_kernel(new_fp, p["preprocess"])
    if kernel is None or not kernel.is_solved:
        return None
    return _mincut(svc, None, p, kernel)


# ----------------------------------------------------------------------
# kcut — the paper's Algorithm 4 (APX-SPLIT)
# ----------------------------------------------------------------------
def _kcut_prepare(svc, entry, p):
    level = p["preprocess"] = p["preprocess"] or svc.preprocess
    if level == "off":
        return None
    with svc.tracer.span("kernel") as sp:
        kernel = svc.store.kcut_kernel_for(entry, p["k"], level)
        if sp:
            sp.set(level=level, reduced=kernel.reduced)
    return kernel


def _kcut(svc, entry, p, kernel):
    reduced = kernel is not None and kernel.reduced
    result = svc.executor.run_kcut(
        kernel.graph if reduced else entry.graph, p["k"],
        eps=p["eps"], trials=p["trials"], seed=p["seed"],
    )
    kcut = result.kcut
    if reduced:
        with svc.tracer.span("lift"):
            kcut = kernel.lift(kcut.parts)
    out = {
        "weight": kcut.weight,
        "k": p["k"],
        "parts": [
            vertex_list(part)
            for part in sorted(kcut.parts, key=len, reverse=True)
        ],
        "rounds": result.ledger.rounds, "iterations": result.iterations,
        "trials": p["trials"], "seed": p["seed"], "eps": p["eps"],
    }
    if kernel is not None:
        out["preprocess"] = kernel.stats()
    return out


# ----------------------------------------------------------------------
# stcut — exact s–t value from the resident Gomory–Hu oracle
# ----------------------------------------------------------------------
def _stcut(svc, entry, p, _):
    oracle = svc.oracle_for(entry)
    s = resolve_vertex(entry.graph, p["s"])
    t = resolve_vertex(entry.graph, p["t"])
    was_built = oracle.built
    return {
        "s": s,
        "t": t,
        "weight": oracle.st_min_cut(s, t),
        "cached": was_built,
    }


# ----------------------------------------------------------------------
# gomoryhu — the canonical cut tree and the all-pairs matrix
# ----------------------------------------------------------------------
def _gomoryhu(svc, entry, p, _):
    from ..flow import DinicSolver, gomory_hu_tree

    graph = entry.graph
    if graph.num_vertices < 2:
        raise ValueError("need n >= 2")
    svc.metrics.scope("scenarios").counter("gomoryhu").inc()
    vertices = vertex_list(graph.vertices())
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    components = graph.components()
    connected = len(components) == 1
    if connected:
        values = svc.oracle_for(entry).all_pairs()
    else:
        # Per-component trees, built cold: the oracle (rightly)
        # refuses disconnected graphs, and cross-component pairs
        # have no finite min cut (served as null).
        values = {}
        for comp in components:
            if len(comp) < 2:
                continue
            sub = gomory_hu_tree(graph.induced_subgraph(comp))
            for u, row in sub.all_pairs_min_cuts().items():
                values.setdefault(u, {}).update(row)
    matrix: list[list] = [[None] * n for _ in range(n)]
    for u, row in values.items():
        for v, w in row.items():
            matrix[index[u]][index[v]] = float(w)

    # Canonical cut tree: the maximum spanning forest of the value
    # matrix under a fixed tie-break.  Adjacent matrix pairs are
    # joined by a single tree edge, so each edge's weight is
    # exactly that pair's min-cut value.
    pairs = [
        (i, j, matrix[i][j])
        for i in range(n)
        for j in range(i + 1, n)
        if matrix[i][j] is not None
    ]
    pairs.sort(key=lambda e: (-e[2], e[0], e[1]))
    forest = DSU(range(n))
    tree: list[dict] = []
    adjacency: list[list] = [[] for _ in range(n)]
    for i, j, w in pairs:
        if not forest.union(i, j):
            continue
        eidx = len(tree)
        tree.append({"u": vertices[i], "v": vertices[j], "weight": w})
        adjacency[i].append((j, eidx, w))
        adjacency[j].append((i, eidx, w))

    # Bottleneck edge per pair: the argmin-weight edge on the tree
    # path (lowest edge index on ties) — symmetric because both
    # directions argmin over the same path.
    bottleneck: list[list] = [[None] * n for _ in range(n)]
    for s in range(n):
        stack: list[tuple] = [(s, None)]
        seen = {s}
        while stack:
            v, best = stack.pop()
            for nbr, eidx, w in adjacency[v]:
                if nbr in seen:
                    continue
                seen.add(nbr)
                cand = best
                if (cand is None or w < cand[0]
                        or (w == cand[0] and eidx < cand[1])):
                    cand = (w, eidx)
                bottleneck[s][nbr] = cand[1]
                stack.append((nbr, cand))

    if p["sides"]:
        for eidx, rec in enumerate(tree):
            iu = index[rec["u"]]
            reach = {iu}
            stack = [iu]
            while stack:
                v = stack.pop()
                for nbr, other, _ in adjacency[v]:
                    if other != eidx and nbr not in reach:
                        reach.add(nbr)
                        stack.append(nbr)
            side = frozenset(vertices[i] for i in reach)
            if graph.cut_weight(side) != rec["weight"]:
                # The canonical tree is flow-equivalent, not
                # cut-equivalent: when the fundamental side misses,
                # one deterministic max-flow recovers a real cut of
                # exactly this value.
                side = DinicSolver(graph).max_flow(
                    rec["u"], rec["v"]
                ).source_side
            rec["side"] = vertex_list(side)

    return {
        "num_vertices": n, "connected": connected,
        "components": len(components), "vertices": vertices,
        "matrix": matrix, "tree": tree, "bottleneck": bottleneck,
        "sides": p["sides"],
    }


# ----------------------------------------------------------------------
# sparsestcut — uniform sparsest cut
# ----------------------------------------------------------------------
def _sparsestcut(svc, entry, p, _):
    from ..analysis.sparsest import (
        EXACT_LIMIT,
        approx_sparsest_cut,
        exact_sparsest_cut,
        lift_side,
        sparsest_kernel,
    )

    graph = entry.graph
    n = graph.num_vertices
    if n < 2:
        raise ValueError("need n >= 2")
    svc.metrics.scope("scenarios").counter("sparsestcut").inc()
    seed, trials, tracer = p["seed"], p["trials"], svc.tracer
    target, sizes, blocks, kstats = graph, None, None, None
    if p["kernel"]:
        with tracer.span("sparsest.kernel") as sp:
            bound = approx_sparsest_cut(
                graph, seed=seed, trials=max(1, trials)
            )
            target, sizes, blocks = sparsest_kernel(
                graph, upper=bound.sparsity
            )
            kstats = {
                "original_vertices": n, "kernel_vertices": target.num_vertices,
                "original_edges": graph.num_edges,
                "kernel_edges": target.num_edges,
                "upper_bound": bound.sparsity,
            }
            if sp:
                sp.set(**kstats)
        if target.num_vertices < 2:
            # Unreachable when the bound comes from a real cut;
            # kept as a guard against float-boundary surprises.
            target, sizes, blocks = graph, None, None
    with tracer.span("sparsest.solve") as sp:
        if target.num_vertices <= EXACT_LIMIT:
            result = exact_sparsest_cut(target, sizes=sizes)
        else:
            result = approx_sparsest_cut(
                target, sizes=sizes, seed=seed, trials=trials
            )
        if sp:
            sp.set(method=result.method, solve_vertices=target.num_vertices)
    side = result.side if blocks is None else lift_side(result.side, blocks)
    out = {
        "sparsity": result.sparsity, "weight": result.weight,
        "demand": result.demand, "side": vertex_list(side),
        "method": result.method, "exact": result.method == "exact-enum",
        "num_vertices": n, "seed": seed, "trials": trials,
        "kernel": p["kernel"],
    }
    if kstats is not None:
        out["sparsest_kernel"] = kstats
    return out


# ----------------------------------------------------------------------
# kernelize, mutate, evict — not queries: no query span, no result cache
# ----------------------------------------------------------------------
def _kernelize(svc, p):
    entry = svc.store.get(p["graph"])
    level, k = p["level"], p["k"]
    t0 = time.perf_counter()
    level_key = level if k is None else ("kcut", k, level)
    cached = svc.store.has_kernel(entry.fingerprint, level_key)
    if k is None:
        kernel = svc.store.kernel_for(entry, level)
    else:
        kernel = svc.store.kcut_kernel_for(entry, k, level)
    payload = {
        "graph": p["graph"], "fingerprint": entry.fingerprint,
        "level": level, "cached": cached, "kernel": kernel.stats(),
        "elapsed_s": time.perf_counter() - t0,
    }
    if k is not None:
        payload["k"] = k
    return payload


def _mutate(svc, p):
    name, deltas = p["graph"], p["deltas"]
    if deltas is not None:
        if p["adds"] or p["removes"] or p["reweights"]:
            raise ValueError(
                "pass either top-level adds/removes/reweights or a "
                "'deltas' list, not both"
            )
        parsed = [
            d if isinstance(d, GraphDelta) else GraphDelta.from_json(d)
            for d in deltas
        ]
    else:  # one delta from the top-level adds/removes/reweights
        parsed = [GraphDelta.from_json(p)]
    if not parsed:
        raise ValueError("no deltas given")
    tracer = svc.tracer
    with tracer.span("mutate") as msp:
        t0 = time.perf_counter()
        records: list[MutationRecord] = []
        entry = None
        for i, delta in enumerate(parsed):
            try:
                with tracer.span("mutate.apply") as sp:
                    entry, record = svc.store.apply_delta(
                        name,
                        delta,
                        expected_fingerprint=(
                            p["expected_fingerprint"] if i == 0 else None
                        ),
                    )
                    if sp:
                        sp.set(
                            graph=name,
                            fingerprint=record.new_fingerprint,
                            noop=record.effect.is_noop,
                            copied_on_write=record.copied_on_write,
                        )
            except (ValueError, KeyError) as exc:
                if not records:
                    raise
                reason = exc.args[0] if exc.args else exc
                raise ValueError(
                    f"delta {i} of {len(parsed)} failed: {reason} "
                    f"(deltas 0..{i - 1} remain applied; re-check "
                    "/graphs for the current fingerprint)"
                ) from None
            with tracer.span("mutate.invalidate") as sp:
                svc.absorb_mutation(entry, record)
                if sp:
                    sp.set(
                        oracle=record.oracle,
                        results_dropped=record.results_dropped,
                        results_rekeyed=record.results_rekeyed,
                    )
            records.append(record)
        if msp:
            msp.set(graph=name, fingerprint=entry.fingerprint,
                    deltas=len(records))
        return {
            "graph": name, "fingerprint": entry.fingerprint,
            "generation": entry.generation, "mutations": entry.mutations,
            "num_vertices": entry.num_vertices,
            "num_edges": entry.num_edges,
            "deltas": [r.as_dict() for r in records],
            "elapsed_s": time.perf_counter() - t0,
        }


def _evict(svc, p):
    return svc.store.evict(p["graph"]).describe()


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
_GRAPH = Param("graph", "str")
_EPS = Param("eps", "float", 0.5, help="approximation slack")
_SEED = Param("seed", "int", 0, help="random seed")
_PREPROCESS = Param("preprocess", "level", None, help=(
    "kernelization level for this query (default: the server's "
    "--preprocess setting)"))

#: Every POST op that reaches :class:`CutService`, by wire name.
OPS: dict[str, OpSpec] = {spec.name: spec for spec in (
    OpSpec("mincut", (
        _GRAPH, _EPS, Param("trials", "int", None, help="independent trials"),
        _SEED, _PREPROCESS,
    ), _mincut, algorithm="ampc-mincut-boosted", coalesce=True,
        key=("eps", "trials", "preprocess", "seed"),
        prepare=_mincut_prepare, rekey=_mincut_rekey),
    OpSpec("kcut", (
        _GRAPH, Param("k", "int", help="number of parts"), _EPS,
        Param("trials", "int", 1), _SEED, _PREPROCESS,
    ), _kcut, algorithm="apx-split-kcut", coalesce=True,
        key=("k", "eps", "trials", "preprocess", "seed"),
        prepare=_kcut_prepare),
    OpSpec("stcut", (
        _GRAPH, Param("s", "vertex", help="source vertex"),
        Param("t", "vertex", help="sink vertex"),
    ), _stcut, algorithm="gomory-hu", coalesce=True),
    OpSpec("gomoryhu", (
        _GRAPH, Param("sides", "bool", False, help=(
            "record a real cut bipartition per tree edge")),
    ), _gomoryhu, algorithm="gomory-hu-allpairs", coalesce=True,
        key=("sides",)),
    OpSpec("sparsestcut", (
        _GRAPH, _SEED, Param("trials", "count", 2),
        Param("kernel", "bool", False, help=(
            "contract provably-uncut edges before solving")),
    ), _sparsestcut, algorithm="sparsest-cut", coalesce=True,
        key=("trials", "kernel", "seed")),
    OpSpec("kernelize", (
        _GRAPH, Param("level", "level", "safe", help="kernelization level"),
        Param("k", "int", None),
    ), _kernelize, coalesce=True),
    OpSpec("mutate", (
        _GRAPH, Param("adds", "list", ()), Param("removes", "list", ()),
        Param("reweights", "list", ()), Param("deltas", "list", None),
        Param("expected_fingerprint", "str", None),
    ), _mutate, route="rekey"),
    OpSpec("evict", (_GRAPH,), _evict, route="drop"),
)}
