"""Weighted undirected graph on columnar (array-backed) storage.

The cut algorithms need exactly these operations, all cheap here:

* iterate edges with weights (numpy-friendly columnar storage),
* weighted degree / cut evaluation,
* quotient by a vertex partition (Karger contraction), merging
  parallel edges by *summing* weights and dropping self-loops — the
  operation Algorithm 1 line 6 performs after "the first k
  contractions",
* edge deletion (APX-SPLIT removes chosen cut edges),
* connected components / induced subgraphs (APX-SPLIT recurses on
  components).

Representation
--------------
Vertices are arbitrary hashables externally; internally every vertex
gets a dense integer index (``_index``/``_vertices``) and the edge set
lives in three parallel numpy columns::

    _us[i] < _vs[i]   endpoint indices of edge i (canonical order)
    _ws[i]            merged weight of edge i (parallel adds sum here)

with ``_m`` live rows in capacity-doubled arrays.  Row order is edge
*insertion* order (first ``add_edge`` of a pair fixes its row), which
is a determinism contract: every consumer that draws randomness per
edge (contraction keys) or accumulates floats per edge (degrees, NI
scans, quotient weight merges) sees edges in exactly this order, so
results are bit-for-bit reproducible and independent of the storage
engine.

Derived views are cached and invalidated on mutation:

* a CSR adjacency view (``indptr``/neighbor/weight/edge-id arrays,
  neighbors of each vertex in edge-insertion order) serving
  :meth:`neighbors` and :meth:`Graph.csr`,
* the weighted degree vector (one ``np.bincount`` over the interleaved
  endpoint columns — the same left-to-right accumulation order as a
  per-edge scan, hence bit-identical to it),
* the row-position map ``{(iu, iv) -> row}`` backing point lookups
  (``weight``/``has_edge``) and incremental ``add_edge``.

Any ``add_vertex``/``add_edge``/``remove_edge``/``set_edge_weight``/
``remove_edges`` drops the CSR and degree caches, so mutate-after-read
always returns fresh results.  The batch mutators (``remove_edges``
mask-and-slice, ``set_edge_weight`` row writes, ``add_edge`` appends)
are what the serving layer's ``/mutate`` path bottoms out in — see
:mod:`repro.service.deltas`.

The structural operations (``quotient``, ``induced_subgraph``,
``without_edges``, ``copy``, ``components``, ``cut_weight``) are
vectorized mask-and-slice / segmented-reduction passes over the
columns; they bypass ``add_edge`` entirely via the private
``_from_columns`` constructor while preserving the exact same edge
order, orientation, and float-accumulation order the incremental path
would have produced.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

Vertex = Hashable
Edge = tuple[Hashable, Hashable, float]

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


#: weights must lie strictly between 0 and this; NaN fails both sides
_INF = math.inf


def _is_weight(weight) -> bool:
    """A real number (not a boolean) strictly between 0 and inf.

    NaN fails every comparison, so ``weight <= 0`` alone lets it in;
    the type test runs first, so a string fails here rather than
    raising a bare ``TypeError`` from ``<``.
    """
    if type(weight) not in (float, int) and (
        isinstance(weight, bool) or not isinstance(weight, numbers.Real)
    ):
        return False
    return 0 < weight < _INF


def _bad_weight(u: Vertex, v: Vertex, weight: float) -> ValueError:
    """The error for a weight on ``{u, v}`` that fails :func:`_is_weight`."""
    return ValueError(
        f"edge weight must be a positive and finite number, got {weight!r} "
        f"for {u!r} -- {v!r}"
    )


def quotient_columns(
    label: np.ndarray, size: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge columns of the quotient that maps vertex ``i`` to group
    ``label[i]`` of ``size``.

    Vectorized label-relabel: edges are mapped through the group
    labels, self-loops masked out, parallel bundles identified by a
    unique-pair pass (rows ordered by first occurrence, exactly as
    incremental ``add_edge`` calls would have ordered them) and merged
    with a segmented ``bincount`` sum whose accumulation order equals
    the per-edge insertion order — so quotient weights are
    bit-identical to the scalar implementation's.
    """
    lu, lv = label[us], label[vs]
    cross = lu != lv
    lu, lv, ww = lu[cross], lv[cross], ws[cross]
    pair = np.minimum(lu, lv) * np.int64(size) + np.maximum(lu, lv)
    uniq, first, inv = np.unique(pair, return_index=True, return_inverse=True)
    # np.unique sorts by pair id; renumber to first-occurrence order
    # so the quotient's edge rows sit exactly where add_edge would
    # have put them.
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq), dtype=np.int64)
    qws = np.bincount(rank[inv], weights=ww, minlength=len(uniq))
    return (uniq // size)[order], (uniq % size)[order], qws


class Graph:
    """Simple weighted undirected graph (no parallel edges, no loops).

    Parallel edges supplied to the constructor are merged by summing
    their weights — the correct semantics for cut problems, where a
    bundle of parallel edges crosses a cut exactly as their total
    weight.  Self-loops are rejected (they can never cross a cut).
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[tuple[Vertex, Vertex] | Edge] = (),
    ):
        self._vertices: list[Vertex] = []
        self._index: dict[Vertex, int] = {}
        self._us: np.ndarray = _EMPTY_I.copy()
        self._vs: np.ndarray = _EMPTY_I.copy()
        self._ws: np.ndarray = _EMPTY_F.copy()
        self._m: int = 0
        self._pos: dict[tuple[int, int], int] | None = {}
        self._csr: (
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
        ) = None
        self._deg: np.ndarray | None = None
        for v in vertices:
            self.add_vertex(v)
        for e in edges:
            if len(e) == 2:
                u, v = e  # type: ignore[misc]
                w = 1.0
            else:
                u, v, w = e  # type: ignore[misc]
            self.add_edge(u, v, w)

    # ------------------------------------------------------------------
    # Columnar plumbing
    # ------------------------------------------------------------------
    @classmethod
    def _from_columns(
        cls,
        vertices: Iterable[Vertex],
        us: np.ndarray,
        vs: np.ndarray,
        ws: np.ndarray,
    ) -> "Graph":
        """Wrap prebuilt columns (canonical ``us < vs``, unique pairs,
        positive weights) without touching ``add_edge``.  The bulk
        constructor behind every vectorized structure operation."""
        g = cls.__new__(cls)
        g._vertices = list(vertices)
        g._index = {v: i for i, v in enumerate(g._vertices)}
        g._us = np.ascontiguousarray(us, dtype=np.int64)
        g._vs = np.ascontiguousarray(vs, dtype=np.int64)
        g._ws = np.ascontiguousarray(ws, dtype=np.float64)
        g._m = int(len(g._us))
        g._pos = None  # built lazily on first point lookup / mutation
        g._csr = None
        g._deg = None
        return g

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live (read-only by convention) views of the edge columns."""
        m = self._m
        return self._us[:m], self._vs[:m], self._ws[:m]

    def _pos_map(self) -> dict[tuple[int, int], int]:
        """Row index of every canonical endpoint pair (lazy)."""
        if self._pos is None:
            us, vs, _ = self._columns()
            self._pos = {
                (iu, iv): i
                for i, (iu, iv) in enumerate(zip(us.tolist(), vs.tolist()))
            }
        return self._pos

    def _invalidate(self) -> None:
        """Drop derived views after a mutation (CSR, degrees)."""
        self._csr = None
        self._deg = None

    def _grow(self) -> None:
        cap = max(4, 2 * len(self._us))
        for name in ("_us", "_vs", "_ws"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[: self._m] = old[: self._m]
            setattr(self, name, new)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        if v not in self._index:
            self._index[v] = len(self._vertices)
            self._vertices.append(v)
            self._invalidate()  # CSR/degree vectors are sized to n

    def add_edge(self, u: Vertex, v: Vertex, weight: float = 1.0) -> None:
        """Add (or reinforce) edge ``{u, v}`` with positive, finite weight.

        Raises :class:`ValueError` naming the weight and the endpoints
        for a self-loop or a weight that is not a number (booleans and
        strings included), or is non-positive, NaN or infinite.
        """
        if u == v:
            raise ValueError(f"self-loop on {u!r} rejected")
        if not _is_weight(weight):
            raise _bad_weight(u, v, weight)
        self.add_vertex(u)
        self.add_vertex(v)
        iu, iv = self._index[u], self._index[v]
        key = (iu, iv) if iu < iv else (iv, iu)
        pos = self._pos_map()
        row = pos.get(key)
        if row is not None:
            merged = float(self._ws[row]) + float(weight)
            if merged == _INF:  # a sum of finite weights can overflow
                raise _bad_weight(u, v, merged)
            self._ws[row] = merged
        else:
            if self._m == len(self._us):
                self._grow()
            m = self._m
            self._us[m], self._vs[m] = key
            self._ws[m] = float(weight)
            pos[key] = m
            self._m = m + 1
        self._invalidate()

    def remove_edge(self, u: Vertex, v: Vertex) -> float:
        """Delete edge ``{u, v}`` entirely; returns its weight.

        Raises :class:`ValueError` naming the endpoints when the edge
        (or either endpoint) is not in the graph.
        """
        row = self._edge_row(u, v)
        if row is None:
            raise ValueError(f"no edge {u!r} -- {v!r} to remove")
        m = self._m
        w = float(self._ws[row])
        self._us[row : m - 1] = self._us[row + 1 : m]
        self._vs[row : m - 1] = self._vs[row + 1 : m]
        self._ws[row : m - 1] = self._ws[row + 1 : m]
        self._m = m - 1
        self._pos = None  # row positions shifted
        self._invalidate()
        return w

    def set_edge_weight(self, u: Vertex, v: Vertex, weight: float) -> float:
        """Set edge ``{u, v}``'s weight outright; returns the old weight.

        Unlike :meth:`add_edge` (which *sums* into an existing row),
        this overwrites — the ``reweight`` op of the serving layer's
        mutation path.  The row keeps its storage position, so edge
        insertion order (the determinism contract above) is untouched.
        Raises :class:`ValueError` naming the endpoints when the edge
        is absent or the weight is not a positive, finite number
        (reweight-to-zero is canonicalized into a remove by the caller,
        mirroring the zero-weight-drop rule of the file readers).
        """
        if not _is_weight(weight):
            raise _bad_weight(u, v, weight)
        row = self._edge_row(u, v)
        if row is None:
            raise ValueError(f"no edge {u!r} -- {v!r} to reweight")
        old = float(self._ws[row])
        self._ws[row] = float(weight)
        self._invalidate()
        return old

    def remove_edges(self, pairs: Iterable[tuple[Vertex, Vertex]]) -> list[float]:
        """Delete a batch of edges in one mask-and-slice pass (in place).

        The in-place counterpart of :meth:`without_edges`: surviving
        rows keep their relative order (exactly what sequential
        :meth:`remove_edge` calls would leave), so downstream per-edge
        randomness and float accumulation are unaffected by batching.
        Every named edge must exist — a missing edge (or unknown
        endpoint) raises :class:`ValueError` naming the endpoints
        *before* anything is removed, making the batch atomic.
        Duplicate mentions are tolerated.  Returns the removed weights
        aligned with the input pairs.
        """
        pairs = list(pairs)
        drop = np.zeros(self._m, dtype=bool)
        weights: list[float] = []
        for u, v in pairs:
            row = self._edge_row(u, v)
            if row is None:
                raise ValueError(f"no edge {u!r} -- {v!r} to remove")
            drop[row] = True
            weights.append(float(self._ws[row]))
        if not pairs:
            return weights
        keep = ~drop
        m = self._m
        kept = int(keep.sum())
        if kept != m:
            self._us[:kept] = self._us[:m][keep]
            self._vs[:kept] = self._vs[:m][keep]
            self._ws[:kept] = self._ws[:m][keep]
            self._m = kept
            self._pos = None  # row positions shifted
            self._invalidate()
        return weights

    def _edge_row(self, u: Vertex, v: Vertex) -> int | None:
        """Storage row of edge ``{u, v}``, or None if absent/unknown."""
        iu = self._index.get(u)
        iv = self._index.get(v)
        if iu is None or iv is None:
            return None
        key = (iu, iv) if iu < iv else (iv, iu)
        return self._pos_map().get(key)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return self._m

    def vertices(self) -> list[Vertex]:
        return list(self._vertices)

    def edges(self) -> Iterator[Edge]:
        us, vs, ws = self._columns()
        V = self._vertices
        for iu, iv, w in zip(us.tolist(), vs.tolist(), ws.tolist()):
            yield (V[iu], V[iv], w)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return self._edge_row(u, v) is not None

    def weight(self, u: Vertex, v: Vertex) -> float:
        iu, iv = self._index[u], self._index[v]
        key = (iu, iv) if iu < iv else (iv, iu)
        return float(self._ws[self._pos_map()[key]])

    def total_weight(self) -> float:
        return float(self._ws[: self._m].sum())

    def _interleaved(self) -> tuple[np.ndarray, np.ndarray]:
        """Both edge orientations interleaved (``u0,v0,u1,v1,...``) with
        matching weights — the shared input of the CSR and degree
        builds, whose element order fixes their accumulation order."""
        m = self._m
        us, vs, ws = self._columns()
        ends = np.empty(2 * m, dtype=np.int64)
        wt = np.empty(2 * m, dtype=np.float64)
        ends[0::2], ends[1::2] = us, vs
        wt[0::2] = ws
        wt[1::2] = ws
        return ends, wt

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The cached CSR adjacency view
        ``(indptr, neighbors, weights, edge_ids)``.

        Vertex ``i``'s incident edges occupy the slice
        ``indptr[i]:indptr[i+1]`` of the neighbor/weight/edge-id
        arrays, listed in edge-insertion order (matching
        :meth:`adjacency`); ``edge_ids`` are the rows the edges occupy
        in the columnar storage (aligned with :meth:`edge_arrays`).
        The view is built lazily, cached, and invalidated by any
        mutation — do not mutate the returned arrays.
        """
        if self._csr is None:
            n = len(self._vertices)
            us, vs, _ = self._columns()
            m = self._m
            # Interleaving the two orientations makes the stable sort
            # list each vertex's incident edges in insertion order no
            # matter which endpoint the vertex is.
            src, wt = self._interleaved()
            dst = np.empty(2 * m, dtype=np.int64)
            dst[0::2], dst[1::2] = vs, us
            eid = np.empty(2 * m, dtype=np.int64)
            eid[0::2] = eid[1::2] = np.arange(m, dtype=np.int64)
            order = np.argsort(src, kind="stable")
            counts = np.bincount(src, minlength=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._csr = (indptr, dst[order], wt[order], eid[order])
        return self._csr

    def _degrees(self) -> np.ndarray:
        """Cached weighted-degree vector (bit-identical to a per-edge
        scan: ``bincount`` accumulates in interleaved edge order)."""
        if self._deg is None:
            ends, wt = self._interleaved()
            self._deg = np.bincount(
                ends, weights=wt, minlength=len(self._vertices)
            )
        return self._deg

    def neighbors(self, v: Vertex) -> list[Vertex]:
        iv = self._index[v]
        indptr, nbr, _, _ = self.csr()
        V = self._vertices
        return [V[i] for i in nbr[indptr[iv] : indptr[iv + 1]].tolist()]

    def degree(self, v: Vertex) -> float:
        """Weighted degree of ``v`` (= weight of the singleton cut {v})."""
        return float(self._degrees()[self._index[v]])

    def degree_vector(self) -> np.ndarray:
        """Weighted degrees of all vertices, indexed like
        :meth:`index_of` (a copy of the cached vector)."""
        return self._degrees().copy()

    def adjacency(self) -> dict[Vertex, dict[Vertex, float]]:
        adj: dict[Vertex, dict[Vertex, float]] = {v: {} for v in self._vertices}
        V = self._vertices
        us, vs, ws = self._columns()
        for iu, iv, w in zip(us.tolist(), vs.tolist(), ws.tolist()):
            u, v = V[iu], V[iv]
            adj[u][v] = w
            adj[v][u] = w
        return adj

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columnar edge view ``(us, vs, ws)`` of vertex indices/weights
        (fresh copies — callers may mutate them freely)."""
        us, vs, ws = self._columns()
        return us.copy(), vs.copy(), ws.copy()

    def index_of(self, v: Vertex) -> int:
        return self._index[v]

    def fingerprint(self) -> str:
        """Stable content hash of the weighted graph (hex SHA-256).

        Two graphs holding the same vertex set and the same merged
        edge weights hash identically, regardless of the order
        vertices or edges were added and regardless of edge endpoint
        order.  Caveat: the hash covers the weights *as stored* —
        three or more parallel edges merged in different orders can
        sum to floats differing in the last ulp, and such graphs
        (whose cut values genuinely differ by that epsilon) fingerprint
        differently.  Vertices are distinguished by type as well as
        value, so the int ``1`` and the string ``"1"`` never collide.

        Mutating the graph changes the fingerprint, so callers that
        cache by fingerprint (the service layer's :class:`GraphStore`
        and Gomory–Hu oracle) must treat registered graphs as frozen.
        """
        def canon(v: Vertex) -> bytes:
            return f"{type(v).__name__}:{v!r}".encode()

        h = hashlib.sha256()
        h.update(b"repro.graph.v1\x1e")
        for label in sorted(canon(v) for v in self._vertices):
            h.update(label)
            h.update(b"\x1f")
        h.update(b"\x1e")
        V = self._vertices
        us, vs, ws = self._columns()
        records = []
        for iu, iv, w in zip(us.tolist(), vs.tolist(), ws.tolist()):
            a = canon(V[iu])
            b = canon(V[iv])
            if b < a:
                a, b = b, a
            records.append((a, b, repr(float(w)).encode()))
        for a, b, wb in sorted(records):
            h.update(a)
            h.update(b"\x1f")
            h.update(b)
            h.update(b"\x1f")
            h.update(wb)
            h.update(b"\x1e")
        return h.hexdigest()

    # ------------------------------------------------------------------
    # Cut evaluation
    # ------------------------------------------------------------------
    def cut_weight(self, side: Iterable[Vertex]) -> float:
        """Total weight crossing the cut ``(side, V \\ side)``.

        Vectorised over the edge columns; ``side`` may be any iterable
        of vertices present in the graph.
        """
        mask = np.zeros(len(self._vertices), dtype=bool)
        index = self._index
        for v in side:
            mask[index[v]] = True
        us, vs, ws = self._columns()
        crossing = mask[us] ^ mask[vs]
        return float(ws[crossing].sum())

    def partition_cut_weight(self, parts: Sequence[Iterable[Vertex]]) -> float:
        """Total weight of edges joining *different* parts of a partition."""
        label = np.full(len(self._vertices), -1, dtype=np.int64)
        index = self._index
        for p, part in enumerate(parts):
            for v in part:
                label[index[v]] = p
        if (label < 0).any():
            raise ValueError("partition does not cover all vertices")
        us, vs, ws = self._columns()
        return float(ws[label[us] != label[vs]].sum())

    # ------------------------------------------------------------------
    # Structure operations
    # ------------------------------------------------------------------
    def _component_roots(self) -> np.ndarray:
        """Min-index root of every vertex's component (array DSU).

        Min-label hooking plus pointer-doubling compression: every
        round hooks each edge's larger root onto the smaller and fully
        compresses, so labels converge to the component's minimum
        vertex index in O(log n) rounds of O(m) vectorized work.
        """
        n = len(self._vertices)
        parent = np.arange(n, dtype=np.int64)
        us, vs, _ = self._columns()
        if self._m == 0 or n == 0:
            return parent
        while True:
            pu, pv = parent[us], parent[vs]
            lo = np.minimum(pu, pv)
            hi = np.maximum(pu, pv)
            live = hi != lo
            if live.any():
                np.minimum.at(parent, hi[live], lo[live])
            while True:
                gp = parent[parent]
                if np.array_equal(gp, parent):
                    break
                parent = gp
            if not live.any():
                return parent

    def components(self) -> list[list[Vertex]]:
        """Connected components (each sorted by internal index)."""
        roots = self._component_roots()
        if len(roots) == 0:
            return []
        order = np.argsort(roots, kind="stable")
        boundaries = np.flatnonzero(np.diff(roots[order])) + 1
        V = self._vertices
        return [
            [V[i] for i in grp.tolist()]
            for grp in np.split(order, boundaries)
        ]

    def induced_subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        keep_set = set(keep)
        n = len(self._vertices)
        vmask = np.fromiter(
            (v in keep_set for v in self._vertices), dtype=bool, count=n
        )
        new_vertices = [v for v, k in zip(self._vertices, vmask.tolist()) if k]
        # Monotonic old->new index remap keeps canonical orientation.
        remap = np.cumsum(vmask, dtype=np.int64) - 1
        us, vs, ws = self._columns()
        emask = vmask[us] & vmask[vs]
        return Graph._from_columns(
            new_vertices, remap[us[emask]], remap[vs[emask]], ws[emask]
        )

    def quotient(
        self, representative: Mapping[Vertex, Vertex]
    ) -> tuple["Graph", dict[Vertex, list[Vertex]]]:
        """Contract vertex groups (Karger contraction).

        ``representative`` maps every vertex to its group representative.
        Parallel edges merge by weight sum; intra-group edges vanish.

        Returns the quotient graph and ``blocks``: representative ->
        list of original vertices, so cuts in the quotient can be
        lifted back to cuts of the original graph.  Groups are numbered
        in order of their first vertex; :func:`quotient_columns` builds
        the edges.
        """
        blocks: dict[Vertex, list[Vertex]] = {}
        for v in self._vertices:
            blocks.setdefault(representative[v], []).append(v)
        reps = list(blocks.keys())
        q_index = {r: i for i, r in enumerate(reps)}
        n = len(self._vertices)
        label = np.empty(n, dtype=np.int64)
        index = self._index
        for v in self._vertices:
            label[index[v]] = q_index[representative[v]]
        columns = quotient_columns(label, len(reps), *self._columns())
        return Graph._from_columns(reps, *columns), blocks

    def without_edges(self, cut_edges: Iterable[tuple[Vertex, Vertex]]) -> "Graph":
        """Copy of the graph minus the given edges (APX-SPLIT's G').

        Every named edge must exist; a missing edge (or unknown
        endpoint) raises :class:`ValueError` naming the endpoints.
        Duplicate mentions of the same edge are tolerated.
        """
        drop = np.zeros(self._m, dtype=bool)
        for u, v in cut_edges:
            row = self._edge_row(u, v)
            if row is None:
                raise ValueError(f"no edge {u!r} -- {v!r} to remove")
            drop[row] = True
        keep = ~drop
        us, vs, ws = self._columns()
        return Graph._from_columns(
            self._vertices, us[keep], vs[keep], ws[keep]
        )

    def copy(self) -> "Graph":
        us, vs, ws = self._columns()
        return Graph._from_columns(
            self._vertices, us.copy(), vs.copy(), ws.copy()
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"
