"""Graph deltas — the mutation vocabulary of the serving layer.

The paper's headline claim is that AMPC cut computations *adapt*
cheaply as the input evolves; a frozen-graph server forfeits that.
This module defines the wire-level mutation unit, :class:`GraphDelta`
(edge adds, removes and reweights), and the in-place application path
:func:`apply_delta` that turns a resident columnar
:class:`~repro.graph.Graph` into its successor without re-parsing or
re-uploading anything.

Semantics (all of them mirrored by the differential harness in
``tests/test_mutation.py`` against a plain edge-list reference model):

* ops apply in the order **reweights, removes, adds** — so
  ``remove (u,v)`` + ``add (u,v,w)`` in one delta replaces the edge
  (the new row lands at the end, exactly as a fresh ``add_edge``
  would place it);
* a **reweight to zero drops the edge** — the same canonicalization
  every file reader applies to zero-weight lines (see
  :mod:`repro.graph.io`); it is rewritten into a remove at parse time;
* adds of an existing edge **reinforce** it (weights sum in place),
  matching :meth:`repro.graph.Graph.add_edge`;
* removes and reweights of a **nonexistent edge raise**
  :class:`ValueError` naming both endpoints, matching
  :meth:`repro.graph.Graph.remove_edge`;
* application is **atomic per delta**: every op is validated against
  the pre-state before the first column is touched, so a rejected
  delta leaves the graph (and its fingerprint) untouched.

Fingerprints chain instead of re-hashing: ``chain_fingerprint`` folds
the delta's canonical digest into the parent fingerprint in
``O(|delta|)``, so a mutation costs proportional to its size, not the
graph's.  Two graphs reach the same chained fingerprint only by the
same (registration, delta, delta, ...) history, which keeps every
fingerprint-keyed cache sound — a re-upload of identical content takes
the content-hash route and simply misses warm, never hits wrong.

>>> from repro.graph import Graph
>>> g = Graph(edges=[(0, 1, 2.0), (1, 2, 2.0)])
>>> delta = GraphDelta.from_json({"adds": [[0, 2, 1.0]],
...                               "reweights": [[0, 1, 5.0]]})
>>> effect = apply_delta(g, delta)
>>> sorted(g.edges())
[(0, 1, 5.0), (0, 2, 1.0), (1, 2, 2.0)]
>>> effect.increase_only
True
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass
from typing import Hashable, Sequence

from ..graph import Graph

Vertex = Hashable


class FingerprintMismatch(ValueError):
    """Optimistic-concurrency conflict: the graph moved under the caller.

    Raised by :meth:`repro.service.store.GraphStore.apply_delta` when
    the caller's ``expected_fingerprint`` no longer matches the resident
    entry (another client mutated or replaced the graph first).  The
    HTTP layer maps it to **409 Conflict**.
    """

    def __init__(self, name: str, expected: str, actual: str):
        super().__init__(
            f"graph {name!r} fingerprint mismatch: expected "
            f"{expected[:16]}..., resident graph is {actual[:16]}..."
        )
        self.name = name
        self.expected = expected
        self.actual = actual


def resolve_vertex(graph: Graph, v) -> Vertex:
    """Map a wire-format vertex id onto a graph vertex.

    JSON round-trips lose the int/str distinction users type at a CLI,
    so fall back across the two spellings before failing.

    >>> g = Graph(edges=[(0, 1, 1.0)])
    >>> resolve_vertex(g, "1")
    1
    """
    candidates = [v]
    if isinstance(v, str):
        try:
            candidates.append(int(v))
        except ValueError:
            pass
    else:
        candidates.append(str(v))
    for c in candidates:
        try:
            graph.index_of(c)
            return c
        except KeyError:
            continue
    raise KeyError(f"vertex {v!r} not in graph")


def _resolve_soft(graph: Graph, v) -> Vertex:
    """Like :func:`resolve_vertex` but unknown vertices pass through.

    Adds may legitimately introduce new vertices; this keeps ``"1"``
    from shadowing an existing int ``1`` while letting genuinely new
    labels in unchanged.
    """
    try:
        return resolve_vertex(graph, v)
    except KeyError:
        return v


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GraphDelta:
    """One batch of edge mutations, canonicalized at construction.

    ``adds`` are ``(u, v, w)`` with ``w > 0`` (an existing edge is
    reinforced by ``w``); ``removes`` are ``(u, v)`` pairs that must
    exist; ``reweights`` are ``(u, v, w)`` setting the edge's weight to
    ``w > 0`` outright.  Reweights to exactly zero are canonicalized
    into removes (``zero_reweights`` counts them); negative weights and
    self-loops are rejected here, before any graph is touched.

    >>> d = GraphDelta.from_json({"reweights": [[0, 1, 0]]})
    >>> d.removes, d.zero_reweights
    (((0, 1),), 1)
    >>> GraphDelta.from_json({"adds": [[2, 2, 1.0]]})
    Traceback (most recent call last):
        ...
    ValueError: self-loop on 2 rejected in delta adds
    """

    adds: tuple[tuple[Vertex, Vertex, float], ...] = ()
    removes: tuple[tuple[Vertex, Vertex], ...] = ()
    reweights: tuple[tuple[Vertex, Vertex, float], ...] = ()
    zero_reweights: int = 0

    @classmethod
    def from_json(cls, body: dict) -> "GraphDelta":
        """Parse the ``/mutate`` wire format (``adds``/``removes``/
        ``reweights`` lists of ``[u, v(, w)]`` rows)."""
        if not isinstance(body, dict):
            raise ValueError("delta must be a JSON object")
        adds = []
        for row in _rows(body, "adds"):
            u, v, w = _edge_row(row, "adds", default_weight=1.0)
            if w <= 0:
                raise ValueError(
                    f"delta add {u!r} -- {v!r} needs positive weight, got {w}"
                )
            adds.append((u, v, w))
        removes = [
            _edge_row(row, "removes", weightless=True)
            for row in _rows(body, "removes")
        ]
        reweights = []
        zero = 0
        for row in _rows(body, "reweights"):
            u, v, w = _edge_row(row, "reweights", default_weight=None)
            if w < 0:
                raise ValueError(
                    f"delta reweight {u!r} -- {v!r} must be >= 0, got {w}"
                )
            if w == 0:
                # The reader rule: a zero-weight edge cannot cross any
                # cut; it is dropped, not stored.
                removes.append((u, v))
                zero += 1
            else:
                reweights.append((u, v, w))
        return cls(
            adds=tuple(adds),
            removes=tuple(removes),
            reweights=tuple(reweights),
            zero_reweights=zero,
        )

    @property
    def is_empty(self) -> bool:
        return not (self.adds or self.removes or self.reweights)

    @property
    def size(self) -> int:
        """Number of ops (the O(|delta|) in every cost statement)."""
        return len(self.adds) + len(self.removes) + len(self.reweights)

    def digest(self) -> str:
        """Stable content hash of the delta (hex SHA-256).

        Ops are hashed in application order (reweights, removes, adds)
        with the same type-qualified vertex encoding
        :meth:`repro.graph.Graph.fingerprint` uses, so ``1`` and
        ``"1"`` never collide and equal deltas hash equally.
        """
        h = hashlib.sha256()
        h.update(b"repro.delta.v1\x1e")
        for tag, rows in (
            (b"rw", self.reweights),
            (b"rm", self.removes),
            (b"ad", self.adds),
        ):
            h.update(tag)
            h.update(b"\x1e")
            for row in rows:
                for item in row:
                    h.update(f"{type(item).__name__}:{item!r}".encode())
                    h.update(b"\x1f")
                h.update(b"\x1e")
        return h.hexdigest()

    def describe(self) -> dict:
        """JSON-able op counts (the ``applied`` block of ``/mutate``)."""
        return {
            "adds": len(self.adds),
            "removes": len(self.removes) - self.zero_reweights,
            "reweights": len(self.reweights),
            "zero_reweight_drops": self.zero_reweights,
        }


def _rows(body: dict, key: str) -> Sequence:
    rows = body.get(key) or ()
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"delta {key!r} must be a list of edge rows")
    return rows


def is_number(value) -> bool:
    """A JSON number: a real that is not a boolean (strings fail too).

    The rule every ``OpSpec`` ``float`` param applies, shared by edge
    weights in ``POST /graphs`` and ``/mutate`` rows.
    """
    if type(value) in (float, int):
        # json.loads yields these; the numbers.Real ABC check is ~5x slower
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_vertex_id(value) -> bool:
    """A wire vertex id: an integer or a string, not a boolean — the
    ``OpSpec`` ``vertex`` rule, shared by ``POST /graphs`` vertices and
    endpoints and by ``/mutate`` rows.

    >>> [is_vertex_id(v) for v in (3, "a", True, None, 1.5, [1])]
    [True, True, False, False, False, False]
    """
    return type(value) in (int, str) or (
        isinstance(value, (str, numbers.Integral))
        and not isinstance(value, bool)
    )


def _edge_row(row, kind: str, *, default_weight=None, weightless: bool = False):
    want = "[u, v]" if weightless else "[u, v, w]"
    if not isinstance(row, (list, tuple)):
        raise ValueError(f"bad row {row!r} in delta {kind}: want {want}")
    if weightless:
        if len(row) != 2:
            raise ValueError(f"bad row {row!r} in delta {kind}: want {want}")
        u, v = row
    elif len(row) == 3:
        u, v, w = row
    elif len(row) == 2 and default_weight is not None:
        u, v = row
        w = default_weight
    else:
        raise ValueError(f"bad row {row!r} in delta {kind}: want {want}")
    if not (is_vertex_id(u) and is_vertex_id(v)):
        raise ValueError(f"bad row {row!r} in delta {kind}: ids must be "
                         f"integers or strings")
    if u == v:
        raise ValueError(f"self-loop on {u!r} rejected in delta {kind}")
    if weightless:
        return (u, v)
    if not is_number(w):
        raise ValueError(
            f"bad row {row!r} in delta {kind}: weight must be a number, "
            f"got {w!r}"
        )
    w = float(w)
    if not math.isfinite(w):
        # json.loads happily parses NaN/Infinity; neither may reach the
        # columnar weights (every later cut value would be poisoned).
        raise ValueError(
            f"delta {kind} weight for {u!r} -- {v!r} must be finite, got {w}"
        )
    return (u, v, w)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeltaEffect:
    """What a delta actually did to a graph.

    ``changed`` records every edge whose stored weight changed, as
    ``(u, v, old_w, new_w)`` with ``0.0`` standing for absent; no-op
    reweights (same weight) are excluded.  The conservative
    invalidation tests in the service layer read exactly these fields:
    ``increase_only`` gates Gomory–Hu tree retention, ``new_vertices``
    forces a rebuild (the tree does not know them), ``edges_added``
    gates the kernel's still-disconnected certificate.
    """

    changed: tuple[tuple[Vertex, Vertex, float, float], ...] = ()
    new_vertices: tuple[Vertex, ...] = ()
    edges_added: int = 0
    edges_removed: int = 0
    reinforced: int = 0
    #: pairs removed and re-added within one delta: the weight may be
    #: unchanged but the edge's storage row moved to the end, which
    #: reorders the per-edge randomness downstream solvers draw — so a
    #: restructured delta is never a no-op even at equal content.
    restructured: int = 0

    @property
    def is_noop(self) -> bool:
        """True when the stored columns are bit-identical to before."""
        return (
            not self.changed
            and not self.new_vertices
            and self.restructured == 0
        )

    @property
    def increase_only(self) -> bool:
        """Every touched edge got strictly heavier (no removes/cuts
        lightened) — the monotone case where cached exact cut values
        can survive (weight of any cut only grows)."""
        return all(new > old for _, _, old, new in self.changed)

    @property
    def changed_pairs(self) -> tuple[tuple[Vertex, Vertex], ...]:
        return tuple((u, v) for u, v, _, _ in self.changed)

    def describe(self) -> dict:
        return {
            "edges_changed": len(self.changed),
            "edges_added": self.edges_added,
            "edges_removed": self.edges_removed,
            "edges_reinforced": self.reinforced,
            "edges_restructured": self.restructured,
            "new_vertices": len(self.new_vertices),
            "increase_only": self.increase_only,
            "no_op": self.is_noop,
        }


def apply_delta(graph: Graph, delta: GraphDelta) -> DeltaEffect:
    """Apply ``delta`` to ``graph`` **in place**, atomically.

    Validation happens entirely against the pre-state: every reweight
    and remove target must exist (``ValueError`` names the endpoints),
    every add must be loop-free with positive weight (already enforced
    by :class:`GraphDelta`).  Only after every check passes does the
    first mutation land, so a failing delta changes nothing.

    The mutation path is the columnar one the tentpole relies on:
    reweights are O(1) row writes, removes are one vectorized
    mask-and-slice pass (:meth:`repro.graph.Graph.remove_edges`), adds
    are amortised O(1) column appends.

    >>> g = Graph(edges=[(0, 1, 2.0), (1, 2, 3.0)])
    >>> apply_delta(g, GraphDelta.from_json({"removes": [[9, 1]]}))
    Traceback (most recent call last):
        ...
    ValueError: no edge 9 -- 1 to remove
    >>> sorted(g.edges())      # rejected delta touched nothing
    [(0, 1, 2.0), (1, 2, 3.0)]
    """
    # -- resolve + validate against the pre-state (no mutation yet) ----
    reweights = []
    for u, v, w in delta.reweights:
        u, v = resolve_vertex_pair(graph, u, v, "reweight")
        reweights.append((u, v, w))
    removes = []
    for u, v in delta.removes:
        u, v = resolve_vertex_pair(graph, u, v, "remove")
        removes.append((u, v))
    adds = []
    for u, v, w in delta.adds:
        ru, rv = _resolve_soft(graph, u), _resolve_soft(graph, v)
        if ru == rv:
            # Distinct wire spellings ("1" vs 1) can resolve onto one
            # vertex; catching the collapse here keeps the delta atomic
            # (add_edge would raise after removes already landed).
            raise ValueError(
                f"self-loop on {ru!r} rejected in delta adds "
                f"({u!r} and {v!r} name the same vertex)"
            )
        adds.append((ru, rv, w))

    before = {v for v in graph.vertices()}
    changed: dict[tuple[Vertex, Vertex], list[float]] = {}

    def note(u, v, old: float, new: float) -> None:
        key = _pair_key(u, v)
        slot = changed.get(key)
        if slot is None:
            changed[key] = [old, new]
        else:
            slot[1] = new

    # -- apply: reweights, removes, adds (the documented order) --------
    for u, v, w in reweights:
        old = graph.set_edge_weight(u, v, w)
        if old != w:
            note(u, v, old, w)
    removed_pairs: set[tuple[Vertex, Vertex]] = set()
    if removes:
        for (u, v), old in zip(removes, graph.remove_edges(removes)):
            note(u, v, old, 0.0)
            removed_pairs.add(_pair_key(u, v))
    reinforced = added = restructured = 0
    for u, v, w in adds:
        old = graph.weight(u, v) if graph.has_edge(u, v) else 0.0
        graph.add_edge(u, v, w)
        pair = _pair_key(u, v)
        if old > 0:
            reinforced += 1
        elif pair in removed_pairs:
            restructured += 1
        else:
            added += 1
        note(u, v, old, graph.weight(u, v))

    new_vertices = tuple(v for v in graph.vertices() if v not in before)
    return DeltaEffect(
        changed=tuple(
            (u, v, old, new)
            for (u, v), (old, new) in changed.items()
            if old != new
        ),
        new_vertices=new_vertices,
        edges_added=added,
        edges_removed=len(removed_pairs),
        reinforced=reinforced,
        restructured=restructured,
    )


def _pair_key(u: Vertex, v: Vertex) -> tuple[Vertex, Vertex]:
    """Orientation-free pair key (same type-qualified order everywhere)."""
    return (
        (u, v)
        if repr((type(u).__name__, u)) <= repr((type(v).__name__, v))
        else (v, u)
    )


def resolve_vertex_pair(graph: Graph, u, v, verb: str):
    """Resolve both endpoints of an existing edge or raise naming them."""
    try:
        ru, rv = resolve_vertex(graph, u), resolve_vertex(graph, v)
    except KeyError:
        raise ValueError(f"no edge {u!r} -- {v!r} to {verb}") from None
    if not graph.has_edge(ru, rv):
        raise ValueError(f"no edge {u!r} -- {v!r} to {verb}")
    return ru, rv


def is_noop_for(graph: Graph, delta: GraphDelta) -> bool:
    """Cheaply decide whether ``delta`` would leave ``graph`` untouched.

    Only reweights can be no-ops (adds always reinforce or append,
    removes always delete); a reweights-only delta whose every target
    exists at exactly the requested weight changes nothing.  The store
    consults this *before* copy-on-write and before mutating, so a
    no-op on a shared fingerprint costs O(|delta|) instead of an
    O(n + m) graph copy plus derived-cache invalidation.

    >>> from repro.graph import Graph
    >>> g = Graph(edges=[(0, 1, 2.0)])
    >>> is_noop_for(g, GraphDelta.from_json({"reweights": [[0, 1, 2.0]]}))
    True
    >>> is_noop_for(g, GraphDelta.from_json({"reweights": [[0, 1, 3.0]]}))
    False
    """
    if delta.adds or delta.removes:
        return False
    for u, v, w in delta.reweights:
        try:
            ru, rv = resolve_vertex(graph, u), resolve_vertex(graph, v)
        except KeyError:
            return False  # let apply_delta raise the proper error
        if not graph.has_edge(ru, rv) or graph.weight(ru, rv) != w:
            return False
    return True


# ----------------------------------------------------------------------
def chain_fingerprint(parent: str, delta: GraphDelta) -> str:
    """Fold a delta into its parent fingerprint (hex SHA-256).

    ``O(|delta|)`` instead of the ``O(m log m)`` full content re-hash:
    the new fingerprint commits to the *history* (registration content
    hash, then each delta digest in order), which identifies the
    content just as uniquely — identical histories produce identical
    graphs because :func:`apply_delta` is deterministic.  Distinct
    histories reaching the same content fingerprint differently is a
    cache *miss*, never a wrong hit.

    >>> a = chain_fingerprint("00" * 32, GraphDelta(adds=((0, 1, 2.0),)))
    >>> b = chain_fingerprint("00" * 32, GraphDelta(adds=((0, 1, 2.0),)))
    >>> a == b and a != "00" * 32
    True
    """
    h = hashlib.sha256()
    h.update(b"repro.graph.delta-chain.v1\x1e")
    h.update(parent.encode())
    h.update(b"\x1e")
    h.update(delta.digest().encode())
    return h.hexdigest()


@dataclass
class MutationRecord:
    """Bookkeeping for one applied delta (the ``/mutate`` response row)."""

    name: str
    old_fingerprint: str
    new_fingerprint: str
    generation: int
    delta: GraphDelta
    effect: DeltaEffect
    shared: bool = False          #: old content still resident elsewhere
    copied_on_write: bool = False
    kernels_revalidated: int = 0
    kernels_dropped: int = 0
    reductions_replayed: int = 0
    results_dropped: int = 0
    results_rekeyed: int = 0
    oracle: str = "absent"

    def as_dict(self) -> dict:
        return {
            "old_fingerprint": self.old_fingerprint,
            "new_fingerprint": self.new_fingerprint,
            "generation": self.generation,
            "delta_digest": self.delta.digest(),
            "applied": self.delta.describe(),
            "effect": self.effect.describe(),
            "invalidation": {
                "copied_on_write": self.copied_on_write,
                "kernels_revalidated": self.kernels_revalidated,
                "kernels_dropped": self.kernels_dropped,
                "reductions_replayed": self.reductions_replayed,
                "results_dropped": self.results_dropped,
                "results_rekeyed": self.results_rekeyed,
                "oracle": self.oracle,
            },
        }
