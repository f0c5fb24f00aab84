"""CutOracle — amortised s–t min-cut queries via a Gomory–Hu tree.

A fresh max-flow per ``/stcut`` query costs ``O(n * m)``-ish per query;
a Gomory–Hu tree (Definition 8, :mod:`repro.flow.gomory_hu`) costs
``n - 1`` max-flows **once** and then answers *every* pair query with
an ``O(n)`` tree-path walk.  That trade is the whole point of a
long-lived serving process: the first query on a graph pays the build,
every later query on the same graph is near-free.

The oracle is lazy (no tree until the first query) and thread-safe
with two locks: ``_build_lock`` serialises the expensive tree build /
repair, while ``_lock`` guards only counters, state snapshots and the
pair memo — so ``stats()`` (the ``/stats`` liveness path) never blocks
behind a build in progress.  ``builds``, ``tree_queries`` (answered by
walking an already-built tree) and ``pair_hits`` (answered from the
bounded per-pair memo without even walking) feed ``/stats``, which is
how the acceptance test verifies the second query was served from
cache.

Surviving mutations — the fully dynamic story
---------------------------------------------
``/mutate`` (through :meth:`repro.service.store.GraphStore.apply_delta`)
calls :meth:`CutOracle.apply_delta` instead of discarding the oracle.  s–t
min-cut *values* are exact and unique, so a retained answer is
automatically bit-identical to a recomputation — retention only has to
be *sound*.  The oracle tracks the **net** weight change per vertex
pair since its last *exactness point* (the last full build or repair,
when every tree label was an exact min-cut value) and settles lazily
on the next query:

* **increase-only net** (adds between known vertices, reinforcements,
  upward reweights) — the tree is *masked*: edges whose recorded cut
  (``child_side``) some net pair crosses are marked touched, and every
  later answer must pass a per-query certificate (below) or trigger a
  rebuild.  No max-flows are spent.
* **any net decrease** (removes, downward reweights) — the tree is
  *repaired* in place by :func:`repro.flow.gomory_hu.repair_gomory_hu`:
  only tree edges whose recorded cut a net pair crosses, or whose
  label exceeds the cheapest new min-cut over the decreased pairs (the
  L-guard), are recomputed with one max-flow each; untouched subtrees
  are kept verbatim.  A successful repair is a new exactness point.
  When the repair cannot beat a rebuild (too many edges affected, a
  disconnecting delta, …) the tree is dropped and rebuilt lazily —
  ``repair_fallbacks`` counts those.
* **new vertices** — the tree cannot know them; dropped and rebuilt
  lazily.

The per-query certificate: a retained answer is served only if some
path edge achieving the tree-path minimum is (a) **untouched** and (b)
its recorded side **separates** ``s`` from ``t`` — then that cut still
exists in the mutated graph at the served weight (upper bound), while
the path minimum over exact labels is a lower bound by the min-cut
triangle inequality.  Check (b) matters because Gusfield trees are
only flow-equivalent: recorded sides need not match tree bipartitions,
which is also why repaired trees keep certifying every answer (an
uncertifiable query falls back to a full rebuild, counted in
``mask_rebuilds``).  ``mask_hits`` counts certificate saves;
``repairs`` / ``repaired_edges`` count localized repairs and the tree
edges they recomputed.
"""

from __future__ import annotations

import threading
from typing import Hashable, Iterable

from ..flow import GomoryHuTree, gomory_hu_tree, repair_gomory_hu
from ..graph import Graph
from ..obs.metrics import MetricsRegistry, MetricsScope
from ..obs.tracing import NULL_TRACER, Tracer
from .cache import LRUCache
from .deltas import _pair_key

Vertex = Hashable

#: pairs memoised per graph; bounded so a server answering diverse
#: pairs on a big graph cannot grow O(n^2) state (the tree walk behind
#: a memo miss is O(n) anyway)
PAIR_MEMO_CAPACITY = 4096

_MISS = object()


class CutOracle:
    """Per-graph oracle answering s–t min-cut queries from one GH tree."""

    #: the registry-counter fields behind the ``stats()`` dict; each
    #: oracle owns a private scope so per-fingerprint stats stay
    #: distinguishable (the service aggregates them for ``/metrics``)
    COUNTER_FIELDS = (
        "builds",
        "tree_queries",
        "mask_hits",
        "mask_rebuilds",
        "deltas_retained",
        "deltas_dropped",
        "repairs",
        "repaired_edges",
        "repair_fallbacks",
    )

    def __init__(
        self,
        graph: Graph,
        *,
        metrics: MetricsScope | None = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.graph = graph
        self._tree: GomoryHuTree | None = None
        self._lock = threading.Lock()
        self._build_lock = threading.Lock()
        if metrics is None:
            metrics = MetricsRegistry().scope("oracle")
        self._counters = {
            f: metrics.counter(f) for f in self.COUNTER_FIELDS
        }
        self._tracer = tracer
        self._pair_memo = LRUCache(
            PAIR_MEMO_CAPACITY, metrics=metrics.scope("pairs")
        )
        #: bumped by every absorbed delta, repair and rebuild; a query
        #: memoises its value only if the epoch it computed under is
        #: still current, so an in-flight query racing a mutation can
        #: never re-populate the just-cleared memo with a pre-mutation
        #: answer.
        self._epoch = 0
        #: children of tree edges whose labels may be stale (their
        #: recorded cut is crossed by some net change); None = every
        #: query may skip certificates (fresh full build, no pending
        #: net).  A *repaired* tree keeps an **empty** set here: all
        #: labels are exact, but certificates stay required because
        #: repaired sides need not be tree bipartitions.
        self._touched: set[Vertex] | None = None
        #: net weight change per pair since the last exactness point:
        #: pair_key -> (u, v, base, new).  Pairs whose change cancels
        #: out are removed, so masking / repair never pays for
        #: reverted edits.  Guarded by ``_build_lock`` for writes.
        self._net: dict = {}
        #: True when ``_net`` changed since the last settle; queries
        #: settle (mask or repair) before answering.
        self._dirty = False
        #: True when the current tree's exactness point was a repair
        #: (certificates required even with an empty net).
        self._repaired_base = False

    def __getattr__(self, name: str) -> int:
        # counter reads stay plain ints (``oracle.builds``), matching
        # the pre-registry attribute contract
        try:
            return self.__dict__["_counters"][name].value
        except KeyError:
            raise AttributeError(name) from None

    def _inc(self, name: str) -> None:
        self._counters[name].inc()

    # ------------------------------------------------------------------
    def tree(self) -> GomoryHuTree:
        """The Gomory–Hu tree, built on first demand.

        Concurrent first queries serialise on the build lock; only the
        winner builds.  The counter lock is never held during the
        ``n - 1`` max-flows, so ``stats()`` stays responsive.
        """
        tree = self._tree
        if tree is not None:
            return tree
        with self._build_lock:
            if self._tree is None:
                with self._tracer.span("oracle.build") as sp:
                    if sp:
                        sp.set(num_vertices=self.graph.num_vertices)
                    built = gomory_hu_tree(self.graph)
                with self._lock:
                    self._tree = built
                    self._touched = None
                    self._net = {}
                    self._dirty = False
                    self._repaired_base = False
                    self._inc("builds")
            return self._tree

    @property
    def built(self) -> bool:
        return self._tree is not None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        graph: Graph,
        changed: Iterable[tuple[Vertex, Vertex, float, float]],
        *,
        has_new_vertices: bool,
    ) -> str:
        """Absorb a graph mutation; returns the action taken.

        ``graph`` is the (possibly copied-on-write) mutated graph this
        oracle now answers for; ``changed`` lists the delta's effective
        weight changes as ``(u, v, old, new)`` tuples (``0.0`` = pair
        absent).  Actions:

        * ``"unbuilt"`` — no tree yet, nothing to invalidate;
        * ``"masked"`` — the accumulated net change is increase-only
          (or empty): the tree is kept and later answers are gated by
          per-query certificates against the touched-edge mask;
        * ``"repair-pending"`` — the net contains a decrease: the tree
          is kept and a localized repair runs lazily on the next query
          (falling back to a rebuild when repair cannot win);
        * ``"dropped"`` — the delta introduces new vertices the tree
          cannot know; discarded and rebuilt lazily.

        Settling is lazy in every retained case: ``apply_delta`` only
        folds the changes into the running per-pair net (so reverted
        edits cancel instead of accumulating) and marks the oracle
        dirty.  The pair memo is cleared in every case except
        ``"unbuilt"`` — memoised values were computed for the old
        content.
        """
        with self._build_lock:
            self.graph = graph
            with self._lock:
                self._epoch += 1
                self._pair_memo.clear()
            if self._tree is None:
                return "unbuilt"
            if has_new_vertices:
                with self._lock:
                    self._tree = None
                    self._touched = None
                    self._net = {}
                    self._dirty = False
                    self._repaired_base = False
                    self._inc("deltas_dropped")
                return "dropped"
            net = self._net
            for u, v, old, new in changed:
                key = _pair_key(u, v)
                prior = net.get(key)
                base = old if prior is None else prior[2]
                if base == new:
                    net.pop(key, None)
                else:
                    net[key] = (u, v, base, new)
            has_decrease = any(
                new < base for _, _, base, new in net.values()
            )
            with self._lock:
                self._dirty = True
                self._inc("deltas_retained")
            return "repair-pending" if has_decrease else "masked"

    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Fold the pending net into the tree (mask or repair).

        Runs under the build lock on the first query after a retained
        mutation.  Increase-only nets just recompute the touched-edge
        mask (zero max-flows); nets with decreases run the localized
        repair, falling back to a lazy full rebuild when the repair
        cannot beat one (``repair_fallbacks``).
        """
        with self._build_lock:
            if not self._dirty or self._tree is None:
                return
            tree = self._tree
            net = self._net
            has_decrease = any(
                new < base for _, _, base, new in net.values()
            )
            if not has_decrease:
                if not net and not self._repaired_base:
                    touched = None
                else:
                    pairs = [(u, v) for u, v, _, _ in net.values()]
                    touched = {
                        e.child
                        for e in tree.edges
                        if any(
                            (u in e.child_side) != (v in e.child_side)
                            for u, v in pairs
                        )
                    }
                with self._lock:
                    self._touched = touched
                    self._dirty = False
                return
            # Net contains a decrease: repair.  A disconnecting delta
            # cannot be repaired — drop, so the next build raises the
            # same "graph must be connected" a cold upload would.
            n = self.graph.num_vertices
            repaired = None
            if len(self.graph.components()) == 1:
                with self._tracer.span("oracle.repair") as sp:
                    repaired = repair_gomory_hu(
                        tree,
                        self.graph,
                        net.values(),
                        max_flows=max(n - 2, 0),
                    )
                    if sp:
                        sp.set(
                            num_vertices=n,
                            net_pairs=len(net),
                            repaired_edges=(
                                len(repaired[1]) if repaired else -1
                            ),
                        )
            if repaired is None:
                with self._lock:
                    self._tree = None
                    self._touched = None
                    self._net = {}
                    self._dirty = False
                    self._repaired_base = False
                    self._epoch += 1
                    self._inc("repair_fallbacks")
                return
            new_tree, recomputed = repaired
            with self._lock:
                self._tree = new_tree
                self._touched = set()
                self._net = {}
                self._dirty = False
                self._repaired_base = True
                self._epoch += 1
                self._inc("repairs")
                self._counters["repaired_edges"].inc(len(recomputed))

    def _rebuild(self) -> GomoryHuTree:
        """Rebuild from the (mutated) graph; clears mask and net.

        Bumps the epoch: a concurrent query that fetched the old masked
        tree and then observed ``_touched is None`` would otherwise
        skip certification against a stale tree *and* pass the memo
        guard — the epoch bump makes its (pre-mutation-exact) value
        non-memoisable.
        """
        with self._build_lock:
            if (
                self._tree is not None
                and self._touched is None
                and not self._dirty
            ):
                return self._tree  # another thread rebuilt first
            with self._tracer.span("oracle.build") as sp:
                if sp:
                    sp.set(num_vertices=self.graph.num_vertices, rebuild=True)
                built = gomory_hu_tree(self.graph)
            with self._lock:
                self._tree = built
                self._touched = None
                self._net = {}
                self._dirty = False
                self._repaired_base = False
                self._epoch += 1
                self._inc("builds")
                self._inc("mask_rebuilds")
            return built

    def _snapshot(
        self,
    ) -> tuple[GomoryHuTree | None, set | None, int, bool]:
        """Consistent (tree, touched, epoch, dirty) tuple.

        Tree and mask must be read together: ``_rebuild`` / ``_settle``
        swap them as a pair, and a torn read (old tree + cleared mask)
        would serve uncertified stale labels.  Every writer updates
        both under ``_lock``.
        """
        with self._lock:
            return self._tree, self._touched, self._epoch, self._dirty

    def _current(self) -> tuple[GomoryHuTree, set | None, int]:
        """A built, settled, consistent (tree, touched, epoch) —
        building / settling lazily and retrying if a concurrent delta
        dirties the state mid-read."""
        while True:
            tree, touched, epoch, dirty = self._snapshot()
            if tree is not None and not dirty:
                return tree, touched, epoch
            if tree is None:
                self.tree()
            else:
                self._settle()

    # ------------------------------------------------------------------
    def st_min_cut(self, s: Vertex, t: Vertex) -> float:
        """Min s–t cut value = min edge weight on the tree path.

        After a retained mutation (masked or repaired tree) the path
        minimum is only served if certified — some argmin edge is
        untouched *and* its recorded cut separates ``s`` from ``t``
        (see the module docstring for why that makes the value exact).
        Uncertified queries rebuild the tree from the mutated graph.
        """
        if s == t:
            raise ValueError("s == t")
        key = (s, t) if repr(s) <= repr(t) else (t, s)
        with self._tracer.span("oracle.query") as sp:
            value = self._pair_memo.get(key, _MISS)
            if value is not _MISS:
                if sp:
                    sp.set(tier="memo")
                return value
            tree, touched, epoch = self._current()
            if touched is None:
                value = tree.min_cut_between(s, t)
                tier = "tree"
            else:
                value = self._certified_value(tree, touched, s, t)
                if value is None:
                    value = self._rebuild().min_cut_between(s, t)
                    tier = "rebuild"
                else:
                    tier = "certified"
                    with self._lock:
                        self._inc("mask_hits")
            if sp:
                sp.set(tier=tier)
            with self._lock:
                self._inc("tree_queries")
                # Memoise only if no delta arrived while computing: the
                # value describes the graph as of `epoch`, and a
                # concurrent apply_delta has already cleared the memo
                # for good reason.
                if self._epoch == epoch:
                    self._pair_memo.put(key, value)
            return value

    def _certified_value(
        self, tree: GomoryHuTree, touched: set, s: Vertex, t: Vertex
    ) -> float | None:
        """Path minimum, if some argmin edge certifies it; else None."""
        path = tree.path_edges(s, t)
        value = min(e.weight for e in path)
        for e in path:
            if e.weight != value or e.child in touched:
                continue
            if (s in e.child_side) != (t in e.child_side):
                return value
        return None

    def all_pairs(self) -> dict:
        """Every pairwise min-cut value ``{u: {v: value}}`` — exact on
        every settle path.

        A fresh tree answers the whole matrix with one ``O(n^2)`` walk
        (:meth:`GomoryHuTree.all_pairs_min_cuts`).  Masked or repaired
        trees fall back to per-pair :meth:`st_min_cut`, whose
        certify-or-rebuild contract keeps each value exact — and whose
        first uncertifiable pair upgrades the oracle to a fresh tree,
        so the remaining pairs are plain walks.  Either way the values
        are the unique min-cut values of the current graph, which is
        what lets ``/gomoryhu`` promise bit-identical payloads across
        the fresh, masked and repaired paths.
        """
        with self._tracer.span("oracle.allpairs") as sp:
            tree, touched, _ = self._current()
            if touched is None:
                if sp:
                    sp.set(tier="tree",
                           num_vertices=self.graph.num_vertices)
                with self._lock:
                    self._inc("tree_queries")
                return tree.all_pairs_min_cuts()
            if sp:
                sp.set(tier="pairwise",
                       num_vertices=self.graph.num_vertices)
            vs = self.graph.vertices()
            out: dict = {v: {} for v in vs}
            for i, s in enumerate(vs):
                for t in vs[i + 1:]:
                    value = self.st_min_cut(s, t)
                    out[s][t] = value
                    out[t][s] = value
            return out

    @property
    def pair_hits(self) -> int:
        return self._pair_memo.hits

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            built = self._tree is not None
            if self._dirty:
                mode = "pending"
            elif self._touched is None:
                mode = "fresh"
            elif self._repaired_base and not self._touched:
                mode = "repaired"
            else:
                mode = "masked"
            stats = {
                "built": built,
                "mode": mode,
                "builds": self.builds,
                "tree_queries": self.tree_queries,
                "mask_hits": self.mask_hits,
                "mask_rebuilds": self.mask_rebuilds,
                "deltas_retained": self.deltas_retained,
                "deltas_dropped": self.deltas_dropped,
                "repairs": self.repairs,
                "repaired_edges": self.repaired_edges,
                "repair_fallbacks": self.repair_fallbacks,
                "pending_pairs": len(self._net),
            }
        memo = self._pair_memo.stats()
        stats["pair_hits"] = memo["hits"]
        stats["memoised_pairs"] = memo["size"]
        return stats
