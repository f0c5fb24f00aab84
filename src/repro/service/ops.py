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
from functools import cached_property, partial
from typing import Any, Callable

from ..core import boost_kcut, boost_min_cut
from ..core.mincut import min_cut_trials
from ..graph import lift_cut
from ..preprocess import LEVELS, validate_level
from .deltas import GraphDelta, MutationRecord, resolve_vertex
from .executor import kcut_trial, mincut_trial


class BadRequest(ValueError):
    """A malformed request; the wire answers it with HTTP 400."""


#: ``Param.default`` of a field the request must carry.
REQUIRED = object()

#: The most trials one ``/mincut``, ``/kcut`` or ``/sparsestcut`` request
#: may run.
MAX_TRIALS = 128

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
    e.g. mincut's trial count follows the kernel size.  ``maximum``
    caps an integral field."""

    name: str
    kind: str
    default: Any = REQUIRED
    help: str = ""
    maximum: int | None = None

    def coerce(self, value):
        """``value`` checked against ``kind``; raises :class:`BadRequest`
        (a boolean is only ever a bool: never a number, string or id)."""
        if self.kind == "level" and value in LEVELS:
            return value  # already canonical
        _, types, want = _KINDS[self.kind]
        if self.maximum is not None:
            want = f"{want} no greater than {self.maximum}"
        integral = self.kind in ("int", "count")
        if integral and isinstance(value, float) and value.is_integer():
            value = int(value)
        if (
            not isinstance(value, types)
            or (isinstance(value, bool) and self.kind != "bool")
            or (self.kind == "count" and value < 0)
            or (self.maximum is not None and value > self.maximum)
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
        return tuple((p.name, _KINDS[p.kind][0] if p.maximum is None else (), p)
                     for p in self.params)

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
    # the count is part of the result-cache key, so resolve it first
    p["trials"] = min_cut_trials(entry.graph, kernel, p["trials"])
    return kernel


def _mincut(svc, entry, p, kernel):
    result = boost_min_cut(
        None if entry is None else entry.graph, kernel=kernel,
        eps=p["eps"], trials=p["trials"], seed=p["seed"],
        run=partial(svc.executor.run, mincut_trial), tracer=svc.tracer,
    )
    cut = result.cut
    out = {
        "weight": cut.weight, "side": vertex_list(cut.side),
        "rounds": result.ledger.rounds,
        "trials": p["trials"], "seed": p["seed"], "eps": p["eps"],
    }
    if kernel is not None:
        out["preprocess"] = result.kernel_stats
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
    result = boost_kcut(
        entry.graph, p["k"], kernel=kernel,
        eps=p["eps"], trials=p["trials"], seed=p["seed"],
        run=partial(svc.executor.run, kcut_trial), tracer=svc.tracer,
    )
    kcut = result.kcut
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
        out["preprocess"] = result.kernel_stats
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
    from ..flow import gomory_hu_tree

    graph = entry.graph
    if graph.num_vertices < 2:
        raise ValueError("need n >= 2")
    svc.metrics.scope("scenarios").counter("gomoryhu").inc()
    components = graph.components()
    if len(components) == 1:
        trees = [svc.oracle_for(entry).all_pairs()]
    else:
        # Per-component trees, built cold: the oracle (rightly)
        # refuses disconnected graphs, and cross-component pairs
        # have no finite min cut (served as null).
        trees = [gomory_hu_tree(graph.induced_subgraph(comp))
                 for comp in components if len(comp) > 1]
    return gomoryhu_reply(graph, trees, sides=p["sides"])


def gomoryhu_reply(graph, trees, *, sides: bool) -> dict:
    """The `/gomoryhu` payload of ``graph`` from exact Gomory–Hu
    ``trees`` of its components with two or more vertices."""
    from ..flow import DinicSolver, cut_tree_tables

    vertices = vertex_list(graph.vertices())
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    rows = [(index[e.child], index[e.parent], e.weight)
            for t in trees for e in t.edges]
    canonical, matrix, bottleneck = cut_tree_tables(n, rows)
    tree = [{"u": vertices[i], "v": vertices[j], "weight": w}
            for i, j, w in canonical]
    if sides:
        adjacency: list[list] = [[] for _ in range(n)]
        for eidx, (i, j, _) in enumerate(canonical):
            adjacency[i].append((j, eidx))
            adjacency[j].append((i, eidx))
        for eidx, ((i, _, w), rec) in enumerate(zip(canonical, tree)):
            reach, stack = {i}, [i]
            while stack:
                for nbr, other in adjacency[stack.pop()]:
                    if other != eidx and nbr not in reach:
                        reach.add(nbr)
                        stack.append(nbr)
            side = frozenset(vertices[k] for k in reach)
            if graph.cut_weight(side) != w:
                # The canonical tree is flow-equivalent, not cut-
                # equivalent: when the fundamental side misses, one
                # deterministic max-flow finds a real cut of this value.
                flow = DinicSolver(graph).max_flow(rec["u"], rec["v"])
                side = flow.source_side
            rec["side"] = vertex_list(side)

    # a spanning forest with n - c edges has c components
    components = n - len(canonical)
    return {
        "num_vertices": n, "connected": components == 1,
        "components": components, "vertices": vertices,
        "matrix": matrix, "tree": tree, "bottleneck": bottleneck,
        "sides": sides,
    }


# ----------------------------------------------------------------------
# sparsestcut — uniform sparsest cut
# ----------------------------------------------------------------------
def _sparsestcut(svc, entry, p, _):
    from ..analysis.sparsest import (
        EXACT_LIMIT,
        approx_sparsest_cut,
        exact_sparsest_cut,
        sparsest_kernel,
    )

    graph = entry.graph
    n = graph.num_vertices
    if n < 2:
        raise ValueError("need n >= 2")
    svc.metrics.scope("scenarios").counter("sparsestcut").inc()
    seed, trials, tracer = p["seed"], p["trials"], svc.tracer
    # The GH sweep of a connected graph seeds its candidates from the
    # oracle's fresh tree: a cold build of the current edge rows.
    tree, tree_use = None, "none"
    if (p["kernel"] or n > EXACT_LIMIT) and len(graph.components()) == 1:
        oracle = svc.oracle_for(entry)
        builds = oracle.builds
        tree = oracle.all_pairs()
        tree_use = "built" if oracle.builds > builds else "cached"
    target, sizes, blocks, kstats = graph, None, None, None
    if p["kernel"]:
        with tracer.span("sparsest.kernel") as sp:
            bound = approx_sparsest_cut(
                graph, seed=seed, trials=max(1, trials), tree=tree
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
            tree_use = "none"
        else:
            if target is not graph:  # a contracted kernel gets its own tree
                tree_use = "built" if tree is not None else "none"
                tree = None
            result = approx_sparsest_cut(
                target, sizes=sizes, seed=seed, trials=trials, tree=tree
            )
        if sp:
            sp.set(method=result.method, solve_vertices=target.num_vertices,
                   starts=result.starts, tree=tree_use)
    side = result.side if blocks is None else lift_cut(blocks, result.side)
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
    cached = svc.store.cached_kernel(entry.fingerprint, level_key) is not None
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
        parsed = [_delta_entry(i, d) for i, d in enumerate(deltas)]
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
                svc.absorb_mutation(record)
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


def _delta_entry(i, entry):
    """Entry ``i`` of a ``deltas`` list, its fields typed as the
    top-level ``adds``/``removes``/``reweights`` are."""
    if isinstance(entry, GraphDelta):
        return entry
    if not isinstance(entry, dict):
        raise BadRequest(f"deltas[{i}] must be an object, got {entry!r}")
    try:
        return GraphDelta.from_json(_DELTA.bind(entry))
    except ValueError as exc:
        raise BadRequest(f"deltas[{i}]: {exc}") from None


def _evict(svc, p):
    return svc.store.evict(p["graph"]).describe()


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
_GRAPH = Param("graph", "str")
#: The fields of one ``/mutate`` delta, top-level or a ``deltas`` entry;
#: not an op itself.
_DELTA = OpSpec("delta", (
    Param("adds", "list", ()), Param("removes", "list", ()),
    Param("reweights", "list", ()),
), GraphDelta.from_json)
_EPS = Param("eps", "float", 0.5, help="approximation slack")
_SEED = Param("seed", "int", 0, help="random seed")
_PREPROCESS = Param("preprocess", "level", None, help=(
    "kernelization level for this query (default: the server's "
    "--preprocess setting)"))

#: Every POST op that reaches :class:`CutService`, by wire name.
OPS: dict[str, OpSpec] = {spec.name: spec for spec in (
    OpSpec("mincut", (
        _GRAPH, _EPS, Param("trials", "int", None, help="independent trials",
                            maximum=MAX_TRIALS),
        _SEED, _PREPROCESS,
    ), _mincut, algorithm="ampc-mincut-boosted", coalesce=True,
        key=("eps", "trials", "preprocess", "seed"),
        prepare=_mincut_prepare, rekey=_mincut_rekey),
    OpSpec("kcut", (
        _GRAPH, Param("k", "int", help="number of parts"), _EPS,
        Param("trials", "int", 1, maximum=MAX_TRIALS), _SEED, _PREPROCESS,
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
        _GRAPH, _SEED, Param("trials", "count", 2, maximum=MAX_TRIALS),
        Param("kernel", "bool", False, help=(
            "contract provably-uncut edges before solving")),
    ), _sparsestcut, algorithm="sparsest-cut", coalesce=True,
        key=("trials", "kernel", "seed")),
    OpSpec("kernelize", (
        _GRAPH, Param("level", "level", "safe", help="kernelization level"),
        Param("k", "int", None),
    ), _kernelize, coalesce=True),
    OpSpec("mutate", (
        _GRAPH, *_DELTA.params, Param("deltas", "list", None),
        Param("expected_fingerprint", "str", None),
    ), _mutate, route="rekey"),
    OpSpec("evict", (_GRAPH,), _evict, route="drop"),
)}
