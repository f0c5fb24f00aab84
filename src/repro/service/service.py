"""CutService — the query-engine facade the HTTP front end exposes.

Composition (each piece independently testable):

* :class:`~repro.service.store.GraphStore` — graphs parsed and
  fingerprinted once, resident thereafter, LRU-bounded;
* :class:`~repro.service.executor.TrialExecutor` — boosting trials
  fanned over a process pool, deterministically merged;
* :class:`~repro.service.oracle.CutOracle` — one lazy Gomory–Hu tree
  per resident graph for O(n) repeated s–t queries;
* :class:`~repro.service.cache.LRUCache` — finished query results keyed
  by ``(fingerprint, op, params)``, the params an op's
  :class:`~repro.service.ops.OpSpec` names as its key.

Each served op is declared once, in :data:`repro.service.ops.OPS`; the
public methods below are thin calls into one skeleton
(:meth:`CutService._serve`) that binds the op's typed params and runs
the shared lookup → kernel → cache → compute steps.

Result-cache keys use the graph **fingerprint**, not the name, so the
cache is content-addressed: re-registering the same graph under another
name (or after an eviction) still hits.  Evicting a graph releases its
oracle; cached results survive (they are small summaries, and the LRU
bounds them).

Graphs are **mutable in place** through :meth:`CutService.mutate`
(edge adds/removes/reweights, batched): the store applies the delta to
the resident columnar graph, the fingerprint advances by chaining the
delta digest, and invalidation is selective — oracle trees survive
increase-only deltas behind per-query certificates, kernels revalidate
where their certificates stand, solved-kernel results re-key, and
everything else is dropped so the next query recomputes exactly what a
cold re-upload of the mutated edge list would (see
:mod:`repro.service.deltas` and ``docs/ARCHITECTURE.md``).

Every public query method returns a JSON-able ``dict`` — the same
payload the HTTP layer ships — with a ``"cached"`` flag so clients and
tests can observe amortisation directly.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Hashable

from ..graph import Graph
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from ..preprocess import validate_level
from .cache import LRUCache
from .deltas import MutationRecord
from .executor import TrialExecutor
from .ops import OPS
from .oracle import CutOracle
from .store import GraphEntry, GraphStore

Vertex = Hashable


class CutService:
    """Long-lived cut-query engine over a registry of resident graphs.

    >>> from repro.graph import Graph
    >>> with CutService() as svc:
    ...     entry = svc.register(
    ...         "tri", Graph(edges=[(0, 1, 2.0), (1, 2, 1.0), (2, 0, 1.0)]))
    ...     before = svc.stcut("tri", 0, 1)["weight"]
    ...     resp = svc.mutate("tri", reweights=[[0, 1, 5.0]])
    ...     after = svc.stcut("tri", 0, 1)["weight"]
    >>> before, resp["generation"], after
    (3.0, 1, 6.0)
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        store_capacity: int | None = None,
        result_cache_capacity: int = 256,
        ampc_backend: str | None = None,
        preprocess: str = "off",
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        #: service-wide instrument registry — every component below
        #: registers its counters/histograms here, so ``GET /metrics``
        #: is one snapshot() pass (oracles keep per-fingerprint private
        #: scopes, aggregated by :meth:`metrics_payload`)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: request-lifecycle span source; pass ``Tracer(enabled=False)``
        #: to turn tracing off (the disabled path is a no-op — see
        #: ``tests/test_tracing.py``)
        self.tracer = tracer if tracer is not None else Tracer()
        self.store = GraphStore(
            capacity=store_capacity,
            on_evict=self._release_oracle,
            metrics=self.metrics.scope("store"),
        )
        self.executor = TrialExecutor(
            workers=workers,
            ampc_backend=ampc_backend,
            metrics=self.metrics.scope("executor"),
            tracer=self.tracer,
        )
        self.results = LRUCache(
            result_cache_capacity, metrics=self.metrics.scope("results")
        )
        #: default kernelization level for mincut/kcut queries; each
        #: query may override it with its own ``preprocess`` field.
        self.preprocess = validate_level(preprocess)
        self._oracles: dict[str, CutOracle] = {}  # fingerprint -> oracle
        self._lock = threading.Lock()
        self.started_at = time.time()

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(
        self, name: str, graph: Graph, *, source: str | None = None
    ) -> dict:
        """Admit a graph; returns its ``/graphs`` description."""
        with self.tracer.span("register") as sp:
            entry = self.store.register(name, graph, source=source)
            if sp:
                sp.set(
                    graph=name,
                    fingerprint=entry.fingerprint,
                    num_vertices=entry.num_vertices,
                    num_edges=entry.num_edges,
                )
            return entry.describe()

    def register_file(self, name: str, path: Path | str) -> dict:
        with self.tracer.span("register") as sp:
            entry = self.store.register_file(name, path)
            if sp:
                sp.set(
                    graph=name,
                    fingerprint=entry.fingerprint,
                    source=str(path),
                )
            return entry.describe()

    def graphs(self) -> list[dict]:
        return [e.describe() for e in self.store.entries()]

    def _release_oracle(self, entry: GraphEntry) -> None:
        # Called by the store on eviction.  Only drop the oracle if no
        # *other* resident entry shares the fingerprint (content-equal
        # graphs registered under two names share one oracle).
        with self._lock:
            if any(
                e.fingerprint == entry.fingerprint for e in self.store.entries()
            ):
                return
            self._oracles.pop(entry.fingerprint, None)
        self.executor.forget(entry.graph)

    def oracle_for(self, entry: GraphEntry) -> CutOracle:
        """The resident Gomory–Hu oracle of ``entry``'s content."""
        with self._lock:
            oracle = self._oracles.get(entry.fingerprint)
            if oracle is None:
                oracle = CutOracle(entry.graph, tracer=self.tracer)
                # Only cache the oracle while its graph is still
                # resident: the entry may have been evicted between the
                # caller's store.get() and this point, and an oracle
                # cached after _release_oracle ran would be orphaned
                # (pinning graph + tree) forever.
                if any(
                    e.fingerprint == entry.fingerprint
                    for e in self.store.entries()
                ):
                    self._oracles[entry.fingerprint] = oracle
            return oracle

    # ------------------------------------------------------------------
    # Served ops: thin calls into one skeleton (see repro.service.ops)
    # ------------------------------------------------------------------
    def mincut(self, name: str, **params) -> dict:
        """Boosted (2+eps)-approximate min cut of a registered graph.

        ``preprocess`` overrides the service default kernelization
        level.  With a non-``off`` level the boosting trials run on the
        graph's cached :class:`~repro.preprocess.CutKernel` (built once
        per fingerprint, resident alongside the graph) and the winning
        cut is lifted back; the response carries the kernel stats.
        """
        return self._serve("mincut", name, params)

    def kcut(self, name: str, k: int, **params) -> dict:
        """(4+eps)-approximate min k-cut of a registered graph.

        With a non-``off`` ``preprocess`` level the trials run on the
        cached k-cut kernel (built once per (fingerprint, k, level), like
        the min-cut kernel) and the winning partition is lifted back to
        the original vertex set.
        """
        return self._serve("kcut", name, dict(params, k=k))

    def stcut(self, name: str, s: Vertex, t: Vertex) -> dict:
        """Exact s–t min-cut value via the graph's Gomory–Hu oracle."""
        return self._serve("stcut", name, {"s": s, "t": t})

    def gomoryhu(self, name: str, **params) -> dict:
        """The full cut tree of a registered graph (`/gomoryhu`).

        One response carries every pairwise min-cut value (``matrix``),
        a flow-equivalent cut tree (``tree``), and per-pair bottleneck
        tree-edge indices (``bottleneck``); with ``sides=True`` each
        tree edge also records a real cut bipartition of its weight.

        The *values* come from the graph's resident
        :class:`~repro.service.oracle.CutOracle` — exact on the fresh,
        masked and repaired settle paths alike — but the served tree is
        **reconstructed canonically** from the value matrix (a maximum
        spanning tree under a fixed tie-break, which is itself a valid
        flow-equivalent Gomory–Hu tree).  Raw Gusfield trees depend on
        build history; the canonical reconstruction is a pure function
        of the matrix, which is how warm, cold, repaired and
        cross-backend replicas all serve bit-identical payloads
        (``tests/test_dynamic_stream.py``).

        A disconnected graph (e.g. after a reweight-to-zero delta) is
        served per component — cross-component entries are ``null`` and
        ``connected`` is false — exactly as a cold rebuild would report
        it, instead of failing on the oracle's connectivity check.
        """
        return self._serve("gomoryhu", name, params)

    def sparsestcut(self, name: str, **params) -> dict:
        """Uniform sparsest cut of a registered graph (`/sparsestcut`).

        Exact enumeration up to 16 vertices, the Gomory–Hu
        single-commodity sweep (:mod:`repro.analysis.sparsest`) above
        it.  ``kernel=True`` first contracts edges provably uncut by
        any solution sparser than a certified upper bound — shrinking
        the instance without moving the optimum, and often pulling a
        large graph under the exact-enumeration limit.

        The solver never touches the mutable oracle state: it is a
        pure function of graph content, so warm and cold replicas (and
        every AMPC backend) return bit-identical answers.
        """
        return self._serve("sparsestcut", name, params)

    def mutate(self, name: str, **params) -> dict:
        """Apply edge deltas to a resident graph **in place** (`/mutate`).

        Pass either one delta through the top-level
        ``adds``/``removes``/``reweights`` lists (rows ``[u, v, w]`` /
        ``[u, v]``) or a batch through ``deltas`` (a list of such
        objects, applied in order).  Each delta is atomic — validated
        against its pre-state before anything lands — and advances the
        graph's fingerprint by chaining
        (:mod:`repro.service.deltas`), so the warm path costs
        ``O(|delta|)`` plus selective invalidation instead of the
        re-upload's full parse + hash.

        Invalidation is scoped to what the delta can touch: other
        graphs' cache entries survive untouched; this graph's
        Gomory–Hu oracle survives arbitrary mixed-sign deltas —
        increase-only nets mask the tree behind per-query certificates,
        nets with decreases trigger a lazy localized repair
        (:meth:`repro.service.oracle.CutOracle.apply_delta`); kernels
        refresh where their reduction certificates stand
        (:func:`repro.preprocess.refresh_kernel`); solved-kernel
        mincut results are re-keyed to the new fingerprint.  Everything
        else is dropped, and the next query recomputes — bit-identical
        to a cold re-upload of the mutated edge list, which is the
        contract ``tests/test_mutation.py`` and
        ``tests/test_dynamic_stream.py`` enforce step by step.

        ``expected_fingerprint`` (checked against the state before the
        first delta) makes the call conditional — a mismatch raises
        :class:`~repro.service.deltas.FingerprintMismatch` (HTTP 409)
        and applies nothing.  A multi-delta batch that fails midway
        reports the failing index; earlier deltas remain applied.
        """
        return self._serve("mutate", name, params)

    def kernelize(self, name: str, **params) -> dict:
        """Build (or fetch) a resident graph's kernel (`/kernelize`).

        Warms the same per-fingerprint kernel cache the queries use, so
        a client can pay the reduction cost eagerly; ``cached`` reports
        whether the kernel was already resident.  With ``k`` the k-cut
        kernel is built instead of the min-cut kernel at ``level``.
        """
        return self._serve("kernelize", name, params)

    def evict(self, name: str) -> dict:
        """Drop a resident graph; returns its last ``/graphs`` row."""
        return self._serve("evict", name, {})

    def _serve(self, op: str, name: str, params: dict) -> dict:
        """The one skeleton behind every served op.

        Binds the op's params, then (for a query) the ``query.<op>``
        span, ``store.lookup``, ``prepare``, ``cache.lookup``, compute,
        ``put``.  A content-addressed hit may carry a payload computed
        under another name, so the caller's name is written back.
        """
        spec = OPS[op]
        p = spec.bind(dict(params, graph=name))
        if spec.algorithm is None:
            return spec.compute(self, p)
        tracer = self.tracer
        with tracer.span("query." + op) as qsp:
            with tracer.span("store.lookup") as sp:
                entry = self.store.get(name)
                if sp:
                    sp.set(graph=name, fingerprint=entry.fingerprint)
            if qsp:
                qsp.set(graph=name, fingerprint=entry.fingerprint,
                        algorithm=spec.algorithm)
            prepared = spec.prepare(self, entry, p) if spec.prepare else None
            key = None
            if spec.key is not None:
                # a list, not a generator: tuple(<genexpr>) over-allocates
                # and resizes, which bumps the GC's allocation count for
                # good on every call
                key = (entry.fingerprint, op, tuple([p[f] for f in spec.key]))
                with tracer.span("cache.lookup") as sp:
                    cached = self.results.get(key)
                    if sp:
                        sp.set(tier="hit" if cached is not None else "miss")
                if qsp:
                    qsp.set(cached=cached is not None)
                if cached is not None:
                    return {**cached, "graph": name, "cached": True}
            t0 = time.perf_counter()
            payload = {
                "graph": name,
                "fingerprint": entry.fingerprint,
                "algorithm": spec.algorithm,
                **spec.compute(self, entry, p, prepared),
            }
            payload["elapsed_s"] = time.perf_counter() - t0
            if key is None:
                # not result-cached: compute reported "cached" itself
                if qsp:
                    qsp.set(cached=payload["cached"])
                return payload
            self.results.put(key, payload)
            return {**payload, "cached": False}

    def absorb_mutation(
        self, entry: GraphEntry, record: MutationRecord
    ) -> None:
        """Service-level selective invalidation for one applied delta.

        The store already moved the fingerprint and revalidated its
        kernels; here the executor's pickled-blob memo, the per-graph
        Gomory–Hu oracle and the result cache follow.  When the old
        content is still resident under another name (``record.shared``,
        after copy-on-write) nothing is invalidated — the delta cannot
        touch the sibling's state.

        A swept result survives, re-keyed to the new fingerprint, only
        when its op's ``rekey`` hook can regenerate it soundly (mincut
        answered by a kernel that stays solved); everything else is
        dropped.
        """
        effect = record.effect
        if effect.is_noop:
            record.oracle = "kept"
            return
        # The executor memoises pickled graphs by object identity; the
        # mutated object's blob is stale (no-op after copy-on-write,
        # where the object is fresh).
        self.executor.forget(entry.graph)
        if record.shared:
            record.oracle = "kept"
            return
        old_fp, new_fp = record.old_fingerprint, record.new_fingerprint
        with self._lock:
            oracle = self._oracles.pop(old_fp, None)
        if oracle is None:
            record.oracle = "absent"
        else:
            record.oracle = oracle.apply_delta(
                entry.graph,
                effect.changed,
                has_new_vertices=bool(effect.new_vertices),
            )
            with self._lock:
                self._oracles[new_fp] = oracle
        dropped = rekeyed = 0
        for key in list(self.results):
            fp, op, values = key
            if fp != old_fp or self.results.pop(key, None) is None:
                continue
            spec = OPS[op]
            fresh = None
            if spec.rekey is not None:
                fresh = spec.rekey(self, dict(zip(spec.key, values)), new_fp)
            if fresh is not None:
                self.results.put((new_fp, op, values), {
                    "graph": "",  # rewritten with the caller's name on hits
                    "fingerprint": new_fp,
                    "algorithm": spec.algorithm,
                    **fresh,
                    "elapsed_s": 0.0,
                })
                rekeyed += 1
            else:
                dropped += 1
        record.results_dropped = dropped
        record.results_rekeyed = rekeyed

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``/stats`` payload: every cache/pool counter in one dict."""
        with self._lock:
            # Snapshot only; oracle.stats() runs outside this lock so a
            # Gomory–Hu build in progress can't wedge the whole service.
            snapshot = dict(self._oracles)
        oracles = {fp: oracle.stats() for fp, oracle in snapshot.items()}
        store_stats = self.store.stats
        return {
            "uptime_s": time.time() - self.started_at,
            "preprocess": self.preprocess,
            "store": self.store.describe(),
            "results": self.results.stats(),
            "executor": self.executor.stats(),
            "oracles": oracles,
            "mutation": {
                "deltas_applied": store_stats.deltas_applied,
                "cow_copies": store_stats.cow_copies,
                "kernel_revalidations": store_stats.kernels_revalidated,
            },
            "requests": request_summary(self.metrics),
            "tracer": self.tracer.stats(),
        }

    def metrics_payload(self) -> dict:
        """The ``GET /metrics`` body: one registry snapshot plus the
        per-fingerprint oracle counters aggregated under ``oracle.*``."""
        snap = self.metrics.snapshot()
        with self._lock:
            oracles = list(self._oracles.values())
        agg = {f: 0 for f in CutOracle.COUNTER_FIELDS}
        pair_hits = 0
        for oracle in oracles:
            for f in CutOracle.COUNTER_FIELDS:
                agg[f] += getattr(oracle, f)
            pair_hits += oracle.pair_hits
        snap["counters"].update(
            {f"oracle.{f}": v for f, v in sorted(agg.items())}
        )
        snap["counters"]["oracle.pair_hits"] = pair_hits
        # Fold in the shm round backend's process-wide counters so the
        # serving tier exposes pool/segment health (attaches, warm
        # rounds, bytes shared) without a second scrape target.
        from ..ampc.backends.shm import METRICS as shm_metrics

        snap["counters"].update(shm_metrics.snapshot()["counters"])
        snap["gauges"]["oracles.resident"] = len(oracles)
        snap["gauges"]["uptime_s"] = time.time() - self.started_at
        return snap

    def close(self) -> None:
        self.executor.shutdown()

    def __enter__(self) -> "CutService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Per-op-class request instruments (``requests.*``), shared by the
# service and a sharded frontend's own registry
# ----------------------------------------------------------------------
def observe_request(
    metrics: MetricsRegistry, op: str, seconds: float, *,
    error: bool = False, shed: bool = False,
) -> None:
    """Record one served request into the per-op-class instruments.

    Called by the HTTP layer with the op name (``mincut``,
    ``stcut``, ``mutate``, ``graphs``, ``batch``, ...) and the
    handler-side wall time; feeds the ``requests.*`` histograms
    behind ``/metrics`` and the ``requests`` section of ``/stats``.
    A 429 from the admission gate counts as a *shed*, not an error
    — shedding under overload is the server working as designed.
    """
    scope = metrics.scope("requests").scope(op)
    scope.counter("count").inc()
    if error:
        scope.counter("errors").inc()
    if shed:
        scope.counter("shed").inc()
    scope.histogram("latency_s").record(seconds)


def request_summary(metrics: MetricsRegistry) -> dict:
    """Per-op-class latency tiles (the ``requests`` /stats section)."""
    summary: dict[str, dict] = {}
    for name, hist in metrics.histograms("requests.").items():
        op = name[len("requests."):].rsplit(".", 1)[0]
        digest = hist.summary()
        summary[op] = {
            "count": digest["count"],
            "errors": metrics.counter(f"requests.{op}.errors").value,
            "p50_s": digest["p50"],
            "p95_s": digest["p95"],
            "p99_s": digest["p99"],
            "mean_s": digest["mean"],
        }
    return summary
