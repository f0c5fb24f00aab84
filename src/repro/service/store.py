"""GraphStore — the resident-graph registry of the serving layer.

A one-shot CLI re-parses its input on every invocation; a query engine
loads each graph **once**, fingerprints it (content hash over the
columnar edge structure, :meth:`repro.graph.Graph.fingerprint` — one
pass over the edge columns), and keeps it resident so every later
query skips parsing and hashing.  Residency also keeps the graph's
lazily built derived views (CSR adjacency, degree vector) warm across
queries.  Registered graphs change only through the store's own
mutation path (:meth:`GraphStore.apply_delta` — edge deltas applied in
place, fingerprints advanced by **chaining** the delta digest), which
selectively invalidates or revalidates derived state; out-of-band
mutation of a registered graph is undefined behaviour.
Graphs are addressed by a caller-chosen name; the fingerprint makes
result caches content-addressed, so re-registering the same graph under
a new name (or after an eviction) still hits warm cache entries.

Capacity is bounded: with more named graphs than ``capacity`` the
least-recently-*queried* one is evicted (its dependents — e.g. the
per-graph Gomory–Hu oracle — are released through ``on_evict``).

The store also owns the **kernelization cache**: one
:class:`~repro.preprocess.CutKernel` per (fingerprint, level), built
lazily by :meth:`GraphStore.kernel_for`, so every preprocessed query on
a resident graph starts from the reduced graph instead of re-running
the reduction pipeline.  Kernels are dropped when the last entry
holding their fingerprint leaves the store.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ..graph import Graph, load_any
from ..obs.metrics import MetricsRegistry, MetricsScope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..preprocess import CutKernel
    from .deltas import GraphDelta, MutationRecord


@dataclass
class GraphEntry:
    """One resident graph plus its registration metadata.

    ``generation`` counts content-changing deltas applied since
    registration (``fingerprint`` is then the *chained* delta
    fingerprint — see :func:`repro.service.deltas.chain_fingerprint`);
    ``mutations`` counts every ``apply_delta`` call, no-ops included.
    """

    name: str
    graph: Graph
    fingerprint: str
    num_vertices: int
    num_edges: int
    queries: int = 0
    source: str | None = None
    generation: int = 0
    mutations: int = 0

    def describe(self) -> dict:
        """JSON-able summary (the ``/graphs`` row)."""
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "queries": self.queries,
            "source": self.source,
            "generation": self.generation,
            "mutations": self.mutations,
        }


class StoreStats:
    """Store counters, registry-backed (``store.*`` in ``GET /metrics``).

    Attribute reads return plain ints (``store.stats.hits``) — the
    shape the tests and ``/stats`` consumers always saw — while the
    underlying instruments are shared with the service-wide
    :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    FIELDS = (
        "registered",
        "replaced",
        "evictions",
        "hits",
        "misses",
        "kernel_builds",
        "kernel_hits",
        "mutations",
        "kernels_revalidated",
        "kernels_dropped_on_mutate",
        "reductions_replayed",
        "deltas_applied",
        "cow_copies",
    )

    def __init__(self, metrics: MetricsScope | None = None):
        if metrics is None:
            metrics = MetricsRegistry().scope("store")
        self._counters = {f: metrics.counter(f) for f in self.FIELDS}

    def inc(self, name: str, n: int = 1) -> None:
        self._counters[name].inc(n)

    def __getattr__(self, name: str) -> int:
        try:
            return self._counters[name].value
        except KeyError:
            raise AttributeError(name) from None

    def as_dict(self) -> dict:
        return {f: self._counters[f].value for f in self.FIELDS}


class GraphStore:
    """Named registry of resident graphs with LRU eviction.

    ``capacity=None`` means unbounded.  ``on_evict`` (if given) is
    called with each evicted :class:`GraphEntry` so owners of derived
    state (oracles, etc.) can release it.

    >>> from repro.graph import Graph
    >>> store = GraphStore(capacity=2)
    >>> entry = store.register("g", Graph(edges=[(0, 1, 2.0)]))
    >>> entry.num_edges, entry.generation
    (1, 0)
    >>> store.get("g") is entry
    True
    >>> from repro.service.deltas import GraphDelta
    >>> entry, record = store.apply_delta(
    ...     "g", GraphDelta.from_json({"adds": [[1, 2, 1.0]]}))
    >>> entry.num_edges, entry.generation
    (2, 1)
    >>> record.new_fingerprint != record.old_fingerprint
    True
    """

    def __init__(
        self,
        *,
        capacity: int | None = None,
        on_evict: Callable[[GraphEntry], None] | None = None,
        metrics: MetricsScope | None = None,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self._entries: OrderedDict[str, GraphEntry] = OrderedDict()
        self._lock = threading.RLock()
        self._on_evict = on_evict
        self.stats = StoreStats(metrics)
        # kernelization cache: (fingerprint, level) -> CutKernel and
        # (fingerprint, ("kcut", k, level)) -> KCutKernel, so every
        # preprocessed query on a resident graph starts from the
        # kernel.  Content-addressed like the oracle cache: two names
        # holding the same graph share one kernel per level.
        self._kernels: dict[tuple, "CutKernel"] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self, name: str, graph: Graph, *, source: str | None = None
    ) -> GraphEntry:
        """Admit ``graph`` under ``name`` (replacing any previous holder).

        Fingerprinting happens here, exactly once per registration; the
        entry is marked most-recently-used.
        """
        if not name:
            raise ValueError("graph name must be non-empty")
        entry = GraphEntry(
            name=name,
            graph=graph,
            fingerprint=graph.fingerprint(),
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            source=source,
        )
        evicted: list[GraphEntry] = []
        with self._lock:
            replaced = self._entries.pop(name, None)
            if replaced is not None:
                # The old holder leaves the store like any eviction, so
                # derived state (oracles) keyed on its content is freed.
                self.stats.inc("replaced")
                evicted.append(replaced)
            self._entries[name] = entry
            self.stats.inc("registered")
            while self.capacity is not None and len(self._entries) > self.capacity:
                _, old = self._entries.popitem(last=False)
                self.stats.inc("evictions")
                evicted.append(old)
            self._drop_orphan_kernels(evicted)
        for old in evicted:
            if self._on_evict is not None:
                self._on_evict(old)
        return entry

    def register_file(self, name: str, path: Path | str) -> GraphEntry:
        """Load ``path`` (edge list / DIMACS / METIS) and register it."""
        return self.register(name, load_any(path), source=str(path))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> GraphEntry:
        """Fetch an entry, refreshing its LRU recency and query count."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                self.stats.inc("misses")
                raise KeyError(f"no graph registered under {name!r}")
            self._entries.move_to_end(name)
            self.stats.inc("hits")
            entry.queries += 1
            return entry

    def peek_fingerprint(self, name: str) -> str | None:
        """Current fingerprint of ``name`` without touching LRU recency
        or the hit/miss counters — the coalescer's key lookup must not
        perturb eviction order or the store's stats."""
        with self._lock:
            entry = self._entries.get(name)
            return entry.fingerprint if entry is not None else None

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def names(self) -> list[str]:
        """Registered names, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def entries(self) -> list[GraphEntry]:
        with self._lock:
            return list(self._entries.values())

    def evict(self, name: str) -> GraphEntry:
        """Explicitly drop ``name``; returns the evicted entry."""
        with self._lock:
            if name not in self._entries:
                raise KeyError(f"no graph registered under {name!r}")
            entry = self._entries.pop(name)
            self.stats.inc("evictions")
            self._drop_orphan_kernels([entry])
        if self._on_evict is not None:
            self._on_evict(entry)
        return entry

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        name: str,
        delta: "GraphDelta",
        *,
        expected_fingerprint: str | None = None,
    ) -> tuple[GraphEntry, "MutationRecord"]:
        """Mutate the resident graph under ``name`` in place.

        The tentpole path of the dynamic-workload scenario: the delta
        is validated against the pre-state (atomic — a rejected delta
        changes nothing), applied through the columnar mutators of
        :class:`~repro.graph.Graph`, and the entry's fingerprint
        advances by **chaining** the delta digest
        (:func:`repro.service.deltas.chain_fingerprint`, ``O(|delta|)``
        instead of an ``O(m log m)`` re-hash).  The entry counts as
        most-recently-used.

        ``expected_fingerprint`` is optimistic concurrency: when given
        and stale, :class:`~repro.service.deltas.FingerprintMismatch`
        (HTTP 409) is raised and nothing is applied.

        Invalidation is *selective*:

        * if another resident entry still holds the old content (same
          fingerprint), the graph is **copied on write** first, so the
          sibling's graph object — and every kernel/oracle built from
          it — stays frozen and nothing of the old content is dropped;
        * otherwise the old fingerprint's kernels are refreshed where
          a reduction certificate survives the delta
          (:func:`repro.preprocess.refresh_kernel` — re-keyed to the
          new fingerprint, counted in ``kernels_revalidated`` with the
          re-run reduction steps in ``reductions_replayed``) and
          dropped where not;
        * a no-op delta (content and row order bit-identical) keeps the
          fingerprint and invalidates nothing.

        Result-cache and oracle invalidation live one layer up in
        :meth:`repro.service.service.CutService.mutate`, which wraps
        this and fills the remaining :class:`MutationRecord` fields.

        Concurrency caveat: the store's own state is mutated under its
        lock, but a query that already fetched this entry's graph
        object races with an in-place mutation of the same name (the
        usual non-MVCC contract).  Copy-on-write shields only siblings
        that share content, not in-flight readers of this entry.
        """
        from ..preprocess import refresh_kernel
        from .deltas import (
            DeltaEffect,
            FingerprintMismatch,
            MutationRecord,
            apply_delta,
            chain_fingerprint,
            is_noop_for,
        )

        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                self.stats.inc("misses")
                raise KeyError(f"no graph registered under {name!r}")
            self._entries.move_to_end(name)
            if (
                expected_fingerprint is not None
                and expected_fingerprint != entry.fingerprint
            ):
                raise FingerprintMismatch(
                    name, expected_fingerprint, entry.fingerprint
                )
            old_fp = entry.fingerprint
            shared = any(
                e is not entry and e.fingerprint == old_fp
                for e in self._entries.values()
            )
            if is_noop_for(entry.graph, delta):
                # Provably-untouched content: skip copy-on-write, the
                # column writes and the derived-cache invalidation
                # entirely (O(|delta|) instead of O(n + m)).
                entry.mutations += 1
                self.stats.inc("mutations")
                return entry, MutationRecord(
                    name=name,
                    old_fingerprint=old_fp,
                    new_fingerprint=old_fp,
                    generation=entry.generation,
                    delta=delta,
                    effect=DeltaEffect(),
                    shared=shared,
                )
            copied = False
            if shared:
                # Copy-on-write: siblings (and any kernel/oracle built
                # from this object) keep the frozen old content.
                entry.graph = entry.graph.copy()
                copied = True
                self.stats.inc("cow_copies")
            effect = apply_delta(entry.graph, delta)
            entry.mutations += 1
            self.stats.inc("mutations")
            record = MutationRecord(
                name=name,
                old_fingerprint=old_fp,
                new_fingerprint=old_fp,
                generation=entry.generation,
                delta=delta,
                effect=effect,
                shared=shared,
                copied_on_write=copied,
            )
            if effect.is_noop:
                return entry, record
            self.stats.inc("deltas_applied")
            entry.fingerprint = chain_fingerprint(old_fp, delta)
            entry.generation += 1
            entry.num_vertices = entry.graph.num_vertices
            entry.num_edges = entry.graph.num_edges
            record.new_fingerprint = entry.fingerprint
            record.generation = entry.generation
            pending: list = []  # (level, kernel) candidates to revalidate
            if not shared:
                for key in [k for k in self._kernels if k[0] == old_fp]:
                    kernel = self._kernels.pop(key)
                    if isinstance(key[1], str):  # min-cut kernel level
                        pending.append((key[1], kernel))
                    else:  # k-cut kernels have no revalidation rule
                        record.kernels_dropped += 1
                        self.stats.inc("kernels_dropped_on_mutate")
        # Revalidation may kernelize (O(n + m)); run it outside the
        # store lock — the same discipline as kernel_for — and install
        # only while the new fingerprint is still resident (a second
        # mutation or an eviction in the gap orphans the result).
        revalidated: list = []
        cut_drops = 0
        replayed = 0
        for level, kernel in pending:
            fresh, _rule = refresh_kernel(kernel, entry.graph)
            if fresh is None:
                cut_drops += 1
            else:
                replayed += len(fresh.steps)
                revalidated.append((level, fresh))
        with self._lock:
            new_fp = record.new_fingerprint
            resident = any(
                e.fingerprint == new_fp for e in self._entries.values()
            )
            if not resident:
                cut_drops += len(revalidated)
                revalidated = []
                replayed = 0
            for level, fresh in revalidated:
                self._kernels.setdefault((new_fp, level), fresh)
                record.kernels_revalidated += 1
                self.stats.inc("kernels_revalidated")
            record.kernels_dropped += cut_drops
            record.reductions_replayed += replayed
            self.stats.inc("kernels_dropped_on_mutate", cut_drops)
            self.stats.inc("reductions_replayed", replayed)
        return entry, record

    # ------------------------------------------------------------------
    # Kernelization cache
    # ------------------------------------------------------------------
    def kernel_for(self, entry: GraphEntry, level: str) -> "CutKernel":
        """The cached :class:`~repro.preprocess.CutKernel` of an entry.

        Built lazily, once per (fingerprint, level): every later query
        on a resident graph starts from the kernel instead of the raw
        graph.  The fingerprint keys the cache, so a kernel can only
        serve the content it was built from — :meth:`apply_delta`
        moves the entry to a new fingerprint and revalidates or drops
        its kernels; eviction of the last entry holding a fingerprint
        drops them too.
        """
        from ..preprocess import kernelize, validate_level

        level = validate_level(level)
        return self._cached_or_built(
            entry, level, lambda g: kernelize(g, level=level)
        )

    def kcut_kernel_for(self, entry: GraphEntry, k: int, level: str):
        """The cached :class:`~repro.preprocess.KCutKernel` of an entry.

        Same contract as :meth:`kernel_for`, keyed by ``(fingerprint,
        ("kcut", k, level))`` so the eviction sweep (which matches on
        the fingerprint element) releases both kinds of kernel.
        """
        from ..preprocess import kernelize_for_kcut, validate_level

        level = validate_level(level)
        return self._cached_or_built(
            entry, ("kcut", k, level),
            lambda g: kernelize_for_kcut(g, k, level=level),
        )

    def _cached_or_built(self, entry: GraphEntry, level_key, build):
        fp = entry.fingerprint  # captured: a concurrent mutation moves it
        key = (fp, level_key)
        with self._lock:
            kernel = self._kernels.get(key)
            if kernel is not None:
                self.stats.inc("kernel_hits")
                return kernel
        # Kernelize outside the lock: reductions are O(m) per round and
        # must not wedge concurrent store lookups.
        kernel = build(entry.graph)
        with self._lock:
            self.stats.inc("kernel_builds")
            # Cache only while the fingerprint is still resident — the
            # entry may have been evicted (or mutated) mid-build, and
            # caching then would pin a stale kernel forever (same rule
            # as the oracle cache in CutService.oracle_for).
            if any(
                e.fingerprint == fp for e in self._entries.values()
            ):
                self._kernels.setdefault(key, kernel)
                kernel = self._kernels[key]
        return kernel

    def has_kernel(self, fingerprint: str, level_key) -> bool:
        """Whether a kernel is cached under ``(fingerprint, level_key)``.

        ``level_key`` is a level name for min-cut kernels or the
        ``("kcut", k, level)`` tuple — the ``/kernelize`` endpoint and
        the mutation path's result-rekey test use this to observe cache
        state without building anything.
        """
        with self._lock:
            return (fingerprint, level_key) in self._kernels

    def cached_kernel(self, fingerprint: str, level_key):
        """The cached kernel under ``(fingerprint, level_key)`` or None."""
        with self._lock:
            return self._kernels.get((fingerprint, level_key))

    def _drop_orphan_kernels(self, evicted: list[GraphEntry]) -> None:
        """Drop kernels whose fingerprint no longer has a resident entry.

        Caller must hold ``self._lock``.
        """
        if not self._kernels or not evicted:
            return
        resident = {e.fingerprint for e in self._entries.values()}
        for entry in evicted:
            if entry.fingerprint in resident:
                continue
            for key in [k for k in self._kernels if k[0] == entry.fingerprint]:
                del self._kernels[key]

    def describe(self) -> dict:
        """JSON-able store summary (the ``/stats`` section)."""
        with self._lock:
            return {
                "resident": len(self._entries),
                "capacity": self.capacity,
                "kernels_resident": len(self._kernels),
                **self.stats.as_dict(),
            }
