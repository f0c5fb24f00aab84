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
least-recently-*queried* one is evicted.

The store also owns **everything derived from a graph's content**: per
resident fingerprint, one record holds the
:class:`~repro.preprocess.CutKernel` of each level, the k-cut kernels,
and the :class:`~repro.service.oracle.CutOracle` (whose one Gomory–Hu
tree serves ``/stcut``, ``/gomoryhu`` and ``/sparsestcut``), plus a
count of the names holding that content.  Each is built lazily on
first use (:meth:`GraphStore.kernel_for`, :meth:`GraphStore.oracle_for`),
shared by every name holding the content, carried along (or dropped)
by :meth:`GraphStore.apply_delta`, and released with the rest of the
record when the last name holding the content leaves the store.
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
    from .oracle import CutOracle

#: the derived-state key of a content's Gomory–Hu oracle, the one
#: derived object that is not a kernel (the ``kernel_*`` counters and
#: ``kernels_resident`` count kernels only); kernels are keyed by their
#: level name or ``("kcut", k, level)``
_ORACLE = "gomory-hu"


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


@dataclass
class _Content:
    """The kernels and oracle derived from one resident content, and
    the number of names holding it; dropped whole when that reaches 0."""

    holders: int = 0
    derived: dict = field(default_factory=dict)


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

    ``capacity=None`` means unbounded.  Kernels and the Gomory–Hu
    oracle are kept per resident fingerprint and released with the
    last name holding that content.

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
        metrics: MetricsScope | None = None,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self._entries: OrderedDict[str, GraphEntry] = OrderedDict()
        self._lock = threading.RLock()
        self.stats = StoreStats(metrics)
        # fingerprint -> what is derived from that content; a key is
        # present exactly while some resident entry holds the content
        self._contents: dict[str, _Content] = {}

    def _hold(self, fingerprint: str) -> None:
        """Count one more resident name holding ``fingerprint``.

        Caller must hold ``self._lock``.
        """
        content = self._contents.get(fingerprint)
        if content is None:
            content = self._contents[fingerprint] = _Content()
        content.holders += 1

    def _release(self, fingerprint: str) -> _Content | None:
        """Count one name fewer; returns the record it dropped, if any.

        Caller must hold ``self._lock``.
        """
        content = self._contents[fingerprint]
        content.holders -= 1
        if content.holders:
            return None
        return self._contents.pop(fingerprint)

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
        with self._lock:
            # Hold the new content before releasing the old holder, so a
            # content-equal re-upload keeps its kernels and oracle.
            self._hold(entry.fingerprint)
            replaced = self._entries.pop(name, None)
            if replaced is not None:
                self.stats.inc("replaced")
                self._release(replaced.fingerprint)
            self._entries[name] = entry
            self.stats.inc("registered")
            while self.capacity is not None and len(self._entries) > self.capacity:
                _, old = self._entries.popitem(last=False)
                self.stats.inc("evictions")
                self._release(old.fingerprint)
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
            self._release(entry.fingerprint)
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
          it — stays frozen; the sibling keeps the derived record and
          the mutated name starts an empty one;
        * otherwise the record moves to the new fingerprint: min-cut
          kernels are refreshed where a reduction certificate survives
          the delta (:func:`repro.preprocess.refresh_kernel`, counted
          in ``kernels_revalidated`` with the re-run reduction steps in
          ``reductions_replayed``) and dropped where not, k-cut kernels
          are dropped, and the Gomory–Hu oracle absorbs the delta
          (:meth:`repro.service.oracle.CutOracle.apply_delta`, whose
          action lands in ``record.oracle``);
        * a no-op delta (content and row order bit-identical) keeps the
          fingerprint and invalidates nothing.

        Result-cache invalidation lives one layer up in
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
            shared = self._contents[old_fp].holders > 1
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
                    oracle="kept",
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
                oracle="kept",
            )
            if effect.is_noop:
                return entry, record
            self.stats.inc("deltas_applied")
            entry.fingerprint = new_fp = chain_fingerprint(old_fp, delta)
            entry.generation += 1
            entry.num_vertices = entry.graph.num_vertices
            entry.num_edges = entry.graph.num_edges
            record.new_fingerprint = new_fp
            record.generation = entry.generation
            graph = entry.graph
            self._hold(new_fp)
            stale = self._release(old_fp)  # None when a sibling holds it
        if stale is None:
            return entry, record
        # Refreshing kernels may kernelize (O(n + m)) and the oracle's
        # build lock may be held for a whole Gomory–Hu build: both run
        # outside the store lock, and what survives is installed only
        # while the new fingerprint is still resident (a second
        # mutation or an eviction in the gap orphans it).
        oracle = stale.derived.pop(_ORACLE, None)
        record.oracle = "absent" if oracle is None else oracle.apply_delta(
            graph, effect.changed, has_new_vertices=bool(effect.new_vertices)
        )
        revalidated: list = []
        dropped = replayed = 0
        for key, kernel in stale.derived.items():
            fresh = None
            if isinstance(key, str):  # k-cut kernels have no refresh rule
                fresh, _rule = refresh_kernel(kernel, graph)
            if fresh is None:
                dropped += 1
            else:
                replayed += len(fresh.steps)
                revalidated.append((key, fresh))
        with self._lock:
            content = self._contents.get(new_fp)
            if content is None:
                dropped += len(revalidated)
                revalidated = []
                replayed = 0
            else:
                if oracle is not None:
                    content.derived.setdefault(_ORACLE, oracle)
                for key, fresh in revalidated:
                    content.derived.setdefault(key, fresh)
            record.kernels_revalidated = len(revalidated)
            record.kernels_dropped = dropped
            record.reductions_replayed = replayed
            self.stats.inc("kernels_revalidated", len(revalidated))
            self.stats.inc("kernels_dropped_on_mutate", dropped)
            self.stats.inc("reductions_replayed", replayed)
        return entry, record

    # ------------------------------------------------------------------
    # Derived state: kernels and the Gomory–Hu oracle
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

        Same contract as :meth:`kernel_for`, keyed by ``("kcut", k,
        level)`` within the content's record.
        """
        from ..preprocess import kernelize_for_kcut, validate_level

        level = validate_level(level)
        return self._cached_or_built(
            entry, ("kcut", k, level),
            lambda g: kernelize_for_kcut(g, k, level=level),
        )

    def oracle_for(
        self, entry: GraphEntry, build: Callable[[Graph], "CutOracle"]
    ) -> "CutOracle":
        """The Gomory–Hu oracle of ``entry``'s content, made by
        ``build(graph)`` on first use; same contract as
        :meth:`kernel_for`, except that :meth:`apply_delta` hands the
        oracle the delta instead of dropping it."""
        return self._cached_or_built(entry, _ORACLE, build)

    def _cached_or_built(self, entry: GraphEntry, key, build):
        fp = entry.fingerprint  # captured: a concurrent mutation moves it
        counted = key != _ORACLE  # kernel_* counters count kernels
        with self._lock:
            content = self._contents.get(fp)
            found = content.derived.get(key) if content is not None else None
            if found is not None:
                if counted:
                    self.stats.inc("kernel_hits")
                return found
        # Build outside the lock: reductions are O(m) per round and
        # must not wedge concurrent store lookups.
        built = build(entry.graph)
        with self._lock:
            if counted:
                self.stats.inc("kernel_builds")
            # Cache only while the fingerprint is still resident — the
            # entry may have been evicted (or mutated) mid-build, and
            # caching then would pin a stale object forever.
            content = self._contents.get(fp)
            if content is not None:
                built = content.derived.setdefault(key, built)
        return built

    def cached_kernel(self, fingerprint: str, level_key):
        """The cached kernel under ``(fingerprint, level_key)`` or None.

        ``level_key`` is a level name for min-cut kernels or the
        ``("kcut", k, level)`` tuple (or another derived-state key);
        nothing is built.
        """
        with self._lock:
            content = self._contents.get(fingerprint)
            return content.derived.get(level_key) if content else None

    def oracles(self) -> dict[str, "CutOracle"]:
        """Snapshot of the resident oracles, by fingerprint."""
        with self._lock:
            return {
                fp: content.derived[_ORACLE]
                for fp, content in self._contents.items()
                if _ORACLE in content.derived
            }

    def describe(self) -> dict:
        """JSON-able store summary (the ``/stats`` section)."""
        with self._lock:
            return {
                "resident": len(self._entries),
                "capacity": self.capacity,
                "kernels_resident": sum(
                    len(c.derived) - (_ORACLE in c.derived)
                    for c in self._contents.values()
                ),
                **self.stats.as_dict(),
            }
