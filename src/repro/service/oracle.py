"""CutOracle — amortised s–t min-cut queries via a Gomory–Hu tree.

A fresh max-flow per ``/stcut`` query costs ``O(n * m)``-ish per query;
a Gomory–Hu tree (Definition 8, :mod:`repro.flow.gomory_hu`) costs
``n - 1`` max-flows **once** and then answers *every* pair query with
an ``O(n)`` tree-path walk.  That trade is the whole point of a
long-lived serving process: the first query on a graph pays the build,
every later query on the same graph is near-free.

The oracle is lazy (no tree until the first query) and thread-safe
with one lock.  Its graph, tree, touched-edge mask, pending net and
flags live in one frozen state record: writers (build, delta, mask,
repair, fallback) replace the record whole under ``_build_lock``,
while readers take one reference to it and never lock — so a query
always sees a consistent state, and ``stats()`` (the ``/stats``
liveness path) never waits behind a build in progress.  ``builds`` and
``tree_queries`` (one per answered ``st_min_cut`` walk or
``all_pairs`` call) feed ``/stats``, which is how the acceptance test
verifies the second query was served without a second build.

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
``mask_rebuilds``).  ``mask_hits`` counts the ``st_min_cut`` answers a
certificate served; ``repairs`` / ``repaired_edges`` count localized
repairs and the tree edges they recomputed.

"Fresh" means a full build of the current edge rows with no delta
since; no settle restores it, not even for a net that cancels out (a
remove plus a re-add moves the row, and a cold build of the moved rows
can record other sides).  :meth:`CutOracle.all_pairs` serves only a
fresh tree and rebuilds any other.

A rebuild need not run all ``n - 1`` flows.  The state keeps the last
full build as its *replay basis*; masks, repairs and repair fallbacks
carry it over, and new vertices drop it.  Each build passes it to
``gomory_hu_tree(graph, prior=basis)``, which reuses every recorded
flow whose augmenting paths miss all rows changed since and runs the
rest (:mod:`repro.flow.gomory_hu`, "Replaying flows").  The result is
still exactly a cold build of the current rows.  Repairs reuse the same
records for the edges they recompute without changing which edges
those are.  ``replayed_flows`` counts the flows taken from the basis.

An increase away from the bridge keeps the tree, and the next answer
is certified instead of rebuilt:

>>> from repro.graph import Graph
>>> g = Graph(edges=[(0, 1, 2.0), (1, 2, 2.0), (2, 0, 2.0),
...                  (3, 4, 2.0), (4, 5, 2.0), (5, 3, 2.0),
...                  (2, 3, 1.0)])
>>> oracle = CutOracle(g)
>>> oracle.st_min_cut(0, 5)  # the first query builds the tree
1.0
>>> old = g.set_edge_weight(0, 1, 9.0)  # inside a triangle
>>> oracle.apply_delta(g, [(0, 1, old, 9.0)], has_new_vertices=False)
'masked'
>>> oracle.st_min_cut(0, 5)
1.0
>>> oracle.builds, oracle.mask_hits
(1, 1)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Hashable, Iterable

from ..flow import GomoryHuTree, gomory_hu_tree, repair_gomory_hu
from ..graph import Graph
from ..obs.metrics import MetricsRegistry, MetricsScope
from ..obs.tracing import NULL_TRACER, Tracer
from .deltas import _pair_key

Vertex = Hashable


@dataclass(frozen=True)
class _State:
    """One consistent oracle state; every transition makes a new one."""

    graph: Graph
    tree: GomoryHuTree | None = None
    #: children of tree edges whose labels may be stale (their recorded
    #: cut is crossed by some net change); None = a fresh full build,
    #: whose queries skip certificates.  Every settle sets a frozenset,
    #: **empty** when no recorded cut is crossed (a repaired tree, a net
    #: that cancelled out): certificates stay required, because the
    #: tree's sides need not be those of a cold build.
    touched: frozenset | None = None
    #: net weight change per pair since the last exactness point:
    #: pair_key -> (u, v, base, new).  Pairs whose change cancels out
    #: are removed, so masking / repair never pays for reverted edits.
    #: Never mutated once the record is published.
    net: dict = field(default_factory=dict)
    #: the net changed since the last settle; queries settle (mask or
    #: repair) before answering
    dirty: bool = False
    #: the net contains a decrease, so the settle is a repair
    has_decrease: bool = False
    #: the tree's exactness point was a repair (names the ``/stats``
    #: ``mode`` only)
    repaired: bool = False
    #: the last full build, whose recorded flows later builds and
    #: repairs replay; kept across masks, repairs and fallbacks
    basis: GomoryHuTree | None = None


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
        "replayed_flows",
    )

    def __init__(
        self,
        graph: Graph,
        *,
        metrics: MetricsScope | None = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self._state = _State(graph)
        self._build_lock = threading.Lock()
        if metrics is None:
            metrics = MetricsRegistry().scope("oracle")
        self._counters = {
            f: metrics.counter(f) for f in self.COUNTER_FIELDS
        }
        self._tracer = tracer

    def __getattr__(self, name: str) -> int:
        # counter reads stay plain ints (``oracle.builds``), matching
        # the pre-registry attribute contract
        try:
            return self.__dict__["_counters"][name].value
        except KeyError:
            raise AttributeError(name) from None

    def _inc(self, name: str, n: int = 1) -> None:
        self._counters[name].inc(n)

    @property
    def built(self) -> bool:
        return self._state.tree is not None

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
        edits cancel instead of accumulating) and marks the state
        dirty.
        """
        with self._build_lock:
            state = self._state
            if state.tree is None:
                self._state = _State(graph)
                return "unbuilt"
            if has_new_vertices:
                self._state = _State(graph)
                self._inc("deltas_dropped")
                return "dropped"
            net = dict(state.net)
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
            self._state = replace(
                state, graph=graph, net=net, dirty=True,
                has_decrease=has_decrease,
            )
            self._inc("deltas_retained")
            return "repair-pending" if has_decrease else "masked"

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _build(self, seen: _State) -> None:
        """Build a fresh tree from ``seen``'s graph, unless another
        writer replaced ``seen`` first (the caller then re-reads).

        The first build counts ``builds``; a build that replaces a
        retained tree (an uncertifiable answer, or ``all_pairs`` on a
        tree that is not fresh) also counts ``mask_rebuilds``.
        """
        with self._build_lock:
            if self._state is not seen:
                return
            rebuild = seen.tree is not None
            with self._tracer.span("oracle.build") as sp:
                if sp:
                    sp.set(num_vertices=seen.graph.num_vertices)
                    if rebuild:
                        sp.set(rebuild=True)
                built = gomory_hu_tree(seen.graph, prior=seen.basis)
                if sp:
                    sp.set(replayed_flows=built.replayed)
            self._state = _State(seen.graph, built, basis=built)
            self._inc("builds")
            self._inc("replayed_flows", built.replayed)
            if rebuild:
                self._inc("mask_rebuilds")

    def _settle(self, seen: _State) -> None:
        """Fold ``seen``'s pending net into its tree (mask or repair).

        Runs under the build lock on the first query after a retained
        mutation.  Increase-only nets (empty ones too) just recompute
        the touched-edge mask (zero max-flows); nets with decreases run
        the localized repair, falling back to a lazy full rebuild when the repair
        cannot beat one (``repair_fallbacks``).
        """
        with self._build_lock:
            if self._state is not seen:
                return
            tree, net, graph = seen.tree, seen.net, seen.graph
            if not seen.has_decrease:
                pairs = [(u, v) for u, v, _, _ in net.values()]
                touched = frozenset(
                    e.child
                    for e in tree.edges
                    if any(
                        (u in e.child_side) != (v in e.child_side)
                        for u, v in pairs
                    )
                )
                self._state = replace(seen, touched=touched, dirty=False)
                return
            # Net contains a decrease: repair.  A disconnecting delta
            # cannot be repaired — drop, so the next build raises the
            # same "graph must be connected" a cold upload would.
            n = graph.num_vertices
            repaired = None
            if len(graph.components()) == 1:
                with self._tracer.span("oracle.repair") as sp:
                    repaired = repair_gomory_hu(
                        tree, graph, net.values(), max_flows=max(n - 2, 0),
                        prior=seen.basis,
                    )
                    if sp:
                        sp.set(
                            num_vertices=n,
                            net_pairs=len(net),
                            repaired_edges=(
                                len(repaired[1]) if repaired else -1
                            ),
                            replayed_flows=(
                                repaired[0].replayed if repaired else 0
                            ),
                        )
            if repaired is None:
                self._state = _State(graph, basis=seen.basis)
                self._inc("repair_fallbacks")
                return
            new_tree, recomputed = repaired
            self._state = _State(
                graph, new_tree, touched=frozenset(), repaired=True,
                basis=seen.basis,
            )
            self._inc("repairs")
            self._inc("repaired_edges", len(recomputed))
            self._inc("replayed_flows", new_tree.replayed)

    def _current(self) -> _State:
        """A built, settled state — building / settling lazily and
        re-reading if a concurrent writer replaced the state."""
        while True:
            state = self._state
            if state.tree is not None and not state.dirty:
                return state
            if state.tree is None:
                self._build(state)
            else:
                self._settle(state)

    # ------------------------------------------------------------------
    # Queries
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
        with self._tracer.span("oracle.query") as sp:
            tier = "tree"
            while True:
                state = self._current()
                if state.touched is None:
                    value = state.tree.min_cut_between(s, t)
                    break
                value = self._certified_value(state, s, t)
                if value is not None:
                    tier = "certified"
                    self._inc("mask_hits")
                    break
                self._build(state)
                tier = "rebuild"
            if sp:
                sp.set(tier=tier)
            self._inc("tree_queries")
            return value

    @staticmethod
    def _certified_value(state: _State, s: Vertex, t: Vertex) -> float | None:
        """Path minimum, if some argmin edge certifies it; else None."""
        path = state.tree.path_edges(s, t)
        value = min(e.weight for e in path)
        for e in path:
            if e.weight != value or e.child in state.touched:
                continue
            if (s in e.child_side) != (t in e.child_side):
                return value
        return None

    def all_pairs(self) -> GomoryHuTree:
        """The fresh tree: a cold build of the current edge rows.

        Any other state (a pending delta, a masked or repaired tree) is
        rebuilt without settling, repairing or walking a pair; repair
        and certificates serve the few pairs ``/stcut`` asks.  The tree
        depends on the rows alone, so ``/gomoryhu`` and ``/sparsestcut``
        answer bit-identically to a cold upload.
        """
        with self._tracer.span("oracle.allpairs") as sp:
            tier = "tree"
            while True:
                state = self._state
                if state.tree is not None:
                    if state.touched is None and not state.dirty:
                        break
                    tier = "rebuild"
                self._build(state)
            if sp:
                sp.set(tier=tier, num_vertices=state.graph.num_vertices)
            self._inc("tree_queries")
            return state.tree

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        state = self._state
        if state.dirty:
            mode = "pending"
        elif state.touched is None:
            mode = "fresh"
        elif state.repaired and not state.touched:
            mode = "repaired"
        else:
            mode = "masked"
        return {
            "built": state.tree is not None,
            "mode": mode,
            **{f: self._counters[f].value for f in self.COUNTER_FIELDS},
            "pending_pairs": len(state.net),
        }
