"""Gomory–Hu trees (Definition 8) via Gusfield's algorithm.

A Gomory–Hu tree of ``G`` is a weighted tree on ``V(G)`` in which, for
every pair ``s, t``, the minimum edge weight on the tree path equals
the ``s``-``t`` min cut of ``G``.  Theorem 2's proof orders the tree's
edges by weight and compares APX-SPLIT's greedy choices against the
prefix of that order (Observation 10); E5 reuses exactly that
machinery as a quality reference.

Gusfield's variant needs ``n - 1`` max-flow calls and no vertex
contraction; it returns a *flow-equivalent* tree (same pairwise cut
values — the property Definition 8 demands).  Each tree edge also
records the concrete side found by its max-flow call, so the
Saran–Vazirani union-of-cuts construction can be materialised.

Replaying flows
---------------
A Gusfield tree keeps its :class:`FlowRecords`: the vertex order,
edge rows and weights it was built on, and each child's ``(parent,
FlowResult)``.  Passed back as ``prior=``, those records let a later
build skip flows.  Take the rows whose weight changed since the
snapshot.  A flow whose support (the rows on its augmenting paths,
:mod:`repro.flow.dinic`) misses all of them would, run again, repeat
bit for bit, as long as no changed row crossed ``_EPS``.  Gusfield's
step for ``v`` is a flow from ``v`` to ``parent[v]``, and ``parent[v]``
is fixed by the earlier steps' sides.  So, step by step, a build that
replays such a flow whenever ``parent[v]`` is the recorded one returns
exactly what a cold build of the current rows returns, edge for edge.
Different vertices, rows or engine, or a changed row crossing
``_EPS``, replay nothing, and only Dinic results carry a support.
:func:`repair_gomory_hu` replays the same records for
the edges it recomputes.

Property-tested: min edge on tree path == direct Dinic min cut for all
pairs on small random graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable

import numpy as np

from ..graph import Graph, IndexDSU
from .dinic import _EPS, DinicSolver
from .push_relabel import PushRelabelSolver

Vertex = Hashable

#: max-flow solver classes by ``engine`` name
_FLOW_ENGINES = {"dinic": DinicSolver, "push_relabel": PushRelabelSolver}


def _flow_engine(engine: str) -> type:
    """The max-flow solver class named ``engine``."""
    try:
        return _FLOW_ENGINES[engine]
    except KeyError:
        raise ValueError(f"unknown flow engine {engine!r}") from None


@dataclass(frozen=True)
class GomoryHuEdge:
    """One tree edge: child—parent with the cut value and child side."""

    child: Vertex
    parent: Vertex
    weight: float
    child_side: frozenset


@dataclass(frozen=True)
class FlowRecords:
    """What a Gusfield build ran: its input and every child's flow."""

    engine: str
    vertices: list
    #: ``(us, vs, ws)`` edge columns of the graph the flows ran on
    rows: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: child -> (parent, FlowResult) of its Gusfield step
    flows: dict


def _replayable(prior: "GomoryHuTree | None", engine: str,
                vertices: list, rows: tuple) -> dict:
    """``prior``'s flows that a run on ``rows`` would repeat bit for bit
    (see "Replaying flows" above), as ``(child, parent) -> FlowResult``;
    empty without records, or when the engine, vertices or ``(u, v)``
    rows differ or a changed weight crosses ``_EPS``."""
    records = None if prior is None else prior.flows
    if records is None:
        return {}
    us, vs, ws = rows
    old_us, old_vs, old_ws = records.rows
    if (engine != records.engine or vertices != records.vertices
            or not np.array_equal(us, old_us)
            or not np.array_equal(vs, old_vs)):
        return {}
    changed = ws != old_ws
    if ((ws[changed] > _EPS) != (old_ws[changed] > _EPS)).any():
        return {}
    changed_arcs = np.repeat(changed, 2)  # arcs 2k, 2k + 1 run along row k
    return {
        (child, parent): res
        for child, (parent, res) in records.flows.items()
        if res.support is not None and not changed_arcs[res.support].any()
    }


@dataclass
class GomoryHuTree:
    """The tree plus query helpers.

    Every s–t query is one walk over the tree path; the min cut is the
    lightest label on it:

    >>> from repro.graph import Graph
    >>> g = Graph(edges=[(0, 1, 2.0), (1, 2, 2.0), (2, 0, 2.0),
    ...                  (3, 4, 2.0), (4, 5, 2.0), (5, 3, 2.0),
    ...                  (2, 3, 1.0)])
    >>> tree = gomory_hu_tree(g)
    >>> tree.min_cut_between(0, 5)
    1.0
    >>> min(e.weight for e in tree.path_edges(0, 5))
    1.0
    """

    graph: Graph
    edges: tuple[GomoryHuEdge, ...]
    #: a full build's flows, which a later ``prior=`` build replays
    flows: FlowRecords | None = field(default=None, compare=False,
                                      repr=False)
    #: max-flows this construction took from ``prior`` instead of running
    replayed: int = field(default=0, compare=False, repr=False)

    @cached_property
    def _up(self) -> dict[Vertex, GomoryHuEdge]:
        """child -> its tree edge, built once per tree instance."""
        return {e.child: e for e in self.edges}

    def min_cut_between(self, s: Vertex, t: Vertex) -> float:
        """Min s-t cut = minimum edge weight on the tree path."""
        return min(e.weight for e in self.path_edges(s, t))

    def path_edges(self, s: Vertex, t: Vertex) -> list[GomoryHuEdge]:
        """The tree edges on the s–t path (min label = min s–t cut).

        The concrete :class:`GomoryHuEdge` records let callers inspect
        the argmin edges' recorded cut sides — the serving layer's
        incremental oracle certifies retained answers against them
        after graph mutations (:mod:`repro.service.oracle`).
        """
        if s == t:
            raise ValueError("s == t")
        up = self._up
        path_s: list[GomoryHuEdge] = []
        v = s
        seen = {v: 0}
        while v in up:
            path_s.append(up[v])
            v = up[v].parent
            seen[v] = len(path_s)
        path_t: list[GomoryHuEdge] = []
        v = t
        while v not in seen:
            path_t.append(up[v])
            v = up[v].parent
        return path_s[: seen[v]] + path_t

    def edges_by_weight(self) -> list[GomoryHuEdge]:
        """Tree edges sorted by non-decreasing weight (Theorem 2's order)."""
        return sorted(self.edges, key=lambda e: e.weight)

    def all_pairs_min_cuts(self) -> dict:
        """Every pairwise min-cut value, ``{u: {v: value}}``: a view of
        :func:`cut_tree_tables`' one union pass over the tree edges."""
        vs = list(dict.fromkeys(
            v for e in self.edges for v in (e.child, e.parent)))
        index = {v: i for i, v in enumerate(vs)}
        _, matrix, _ = cut_tree_tables(len(vs), [
            (index[e.child], index[e.parent], e.weight) for e in self.edges])
        return {u: {v: w for v, w in zip(vs, row) if w is not None}
                for u, row in zip(vs, matrix)}

    def min_cut_value(self) -> float:
        """Global min cut = lightest tree edge."""
        return min(e.weight for e in self.edges)

    def kcut_upper_bound(self, k: int) -> float:
        """Saran–Vazirani: union of the k-1 lightest GH cuts.

        Returns the total weight of edges removed by unioning the
        ``k-1`` lightest tree edges' recorded sides — a
        ``(2 - 2/k)``-approximation of Min k-Cut (their Theorem 6 /
        paper Observation 10 + Theorem 6).
        """
        if not 2 <= k <= self.graph.num_vertices:
            raise ValueError("need 2 <= k <= n")
        chosen = self.edges_by_weight()[: k - 1]
        removed: set[tuple[Vertex, Vertex]] = set()
        for e in chosen:
            side = e.child_side
            for u, v, _ in self.graph.edges():
                if (u in side) != (v in side):
                    removed.add((u, v))
        return float(
            sum(
                w
                for u, v, w in self.graph.edges()
                if (u, v) in removed or (v, u) in removed
            )
        )


def cut_tree_tables(
    n: int, edges: Iterable[tuple[int, int, float]]
) -> tuple[list[tuple[int, int, float]], list[list], list[list]]:
    """``(tree, matrix, bottleneck)`` of an exact cut forest on ``0..n-1``.

    ``edges`` is any forest whose path minima are the min cuts
    (Definition 8).  ``tree`` is the forest Kruskal picks from the
    value matrix in ``(-w, i, j)`` order; min cuts are unique, so the
    *star rule* finds it from the edges: by decreasing weight, each set
    of components one weight's edges join gets edges ``(a, min C)``,
    ``a`` the set's least index and ``C`` its other components.  One
    union pass over ``tree`` in ``(-w, -index)`` order fills ``matrix``
    and ``bottleneck`` (the lightest path edge, lowest index on ties):
    each union fills the pairs across the two sets it joins, one slice
    of a layout where every set is a contiguous run.

    >>> tree, matrix, bottleneck = cut_tree_tables(
    ...     4, [(1, 0, 2.0), (2, 0, 2.0), (3, 2, 1.0)])
    >>> tree
    [(0, 1, 2.0), (0, 2, 2.0), (0, 3, 1.0)]
    >>> matrix[1], bottleneck[1]
    ([2.0, None, 2.0, 1.0], [0, None, 0, 2])
    """
    edges = sorted(((i, j, float(w)) for i, j, w in edges),
                   key=lambda e: -e[2])
    dsu, least, tree = IndexDSU(n), list(range(n)), []
    for w, group in itertools.groupby(edges, key=lambda e: e[2]):
        group = list(group)
        roots = {dsu.find(v) for e in group for v in e[:2]}
        joined = {r: least[r] for r in roots}
        for i, j, _ in group:
            ri, rj = dsu.find(i), dsu.find(j)
            dsu.union(ri, rj)
            least[dsu.find(ri)] = min(least[ri], least[rj])
        for r, low in joined.items():
            if low != least[dsu.find(r)]:
                tree.append((least[dsu.find(r)], low, w))
    tree.sort(key=lambda e: (-e[2], e[0], e[1]))

    dsu, runs, blocks = IndexDSU(n), [[v] for v in range(n)], []
    for _, group in itertools.groupby(enumerate(tree), key=lambda e: e[1][2]):
        for eidx, (i, j, w) in reversed(list(group)):
            ri, rj = dsu.find(i), dsu.find(j)
            blocks.append((runs[ri][0], len(runs[ri]), len(runs[rj]), w, eidx))
            dsu.union(ri, rj)
            runs[dsu.find(ri)] = runs[ri] + runs[rj]
    layout = [v for r in range(n) if r == dsu.find(r) for v in runs[r]]
    pos = np.argsort(layout)  # each vertex's place in the layout
    matrix = np.full((n, n), None, dtype=object)
    bottleneck = np.full((n, n), None, dtype=object)
    for first, size_a, size_b, w, eidx in blocks:
        a = pos[first]
        b, end = a + size_a, a + size_a + size_b
        matrix[a:b, b:end] = matrix[b:end, a:b] = w
        bottleneck[a:b, b:end] = bottleneck[b:end, a:b] = eidx
    unpermute = np.ix_(pos, pos)
    return tree, matrix[unpermute].tolist(), bottleneck[unpermute].tolist()


def gomory_hu_tree(
    graph: Graph,
    *,
    engine: str = "dinic",
    prior: GomoryHuTree | None = None,
) -> GomoryHuTree:
    """Build the (flow-equivalent) Gomory–Hu tree with Gusfield's method.

    ``engine`` selects the max-flow implementation: ``"dinic"``
    (default) or ``"push_relabel"`` — two independently-derived solvers
    whose agreement the flow tests cross-check, so a flow bug cannot
    silently skew the k-cut quality numbers built on this tree.

    ``prior`` is an earlier build with the same engine; its flows that
    the current rows would repeat are replayed instead of run (see
    "Replaying flows" above), so the result equals a cold build.
    """
    vertices = graph.vertices()
    if len(vertices) < 2:
        raise ValueError("need n >= 2")
    if len(graph.components()) != 1:
        raise ValueError("graph must be connected")
    rows = graph.edge_arrays()
    reuse = _replayable(prior, engine, vertices, rows)
    solver, replayed = None, 0
    root = vertices[0]
    parent: dict[Vertex, Vertex] = {v: root for v in vertices[1:]}
    flows: dict[Vertex, tuple] = {}
    for i, v in enumerate(vertices[1:], start=1):
        p = parent[v]
        res = reuse.get((v, p))
        if res is None:
            if solver is None:
                solver = _flow_engine(engine)(graph)
            res = solver.max_flow(v, p)
        else:
            replayed += 1
        flows[v] = (p, res)
        for u in vertices[i + 1 :]:
            if parent[u] == p and u in res.source_side:
                parent[u] = v
    edges = tuple(
        GomoryHuEdge(
            child=v, parent=p, weight=res.value, child_side=res.source_side
        )
        for v, (p, res) in flows.items()
    )
    return GomoryHuTree(
        graph=graph,
        edges=edges,
        flows=FlowRecords(engine, vertices, rows, flows),
        replayed=replayed,
    )


def repair_gomory_hu(
    tree: GomoryHuTree,
    graph: Graph,
    changed: Iterable[tuple[Vertex, Vertex, float, float]],
    *,
    max_flows: int | None = None,
    prior: GomoryHuTree | None = None,
) -> tuple[GomoryHuTree, tuple[Vertex, ...]] | None:
    """Localized Gomory–Hu repair after a mixed-sign weight delta.

    ``tree`` is a Gusfield tree whose edge labels were exact min-cut
    values of some earlier graph state; ``changed`` lists the **net**
    weight changes ``(u, v, old, new)`` since that state (``0.0`` means
    the pair was / is absent).  ``graph`` is the current (mutated)
    graph — it must be connected and have the same vertex set as the
    tree.  Returns ``(repaired_tree, repaired_children)`` with every
    label an exact min-cut value of ``graph``, or ``None`` when the
    repair would not beat a full rebuild (see ``max_flows``).

    Which edges can be kept verbatim?  Each tree edge records the
    concrete cut side its max-flow found (``child_side``).  Let ``D``
    be the decreased pairs and ``L = min over D of the *new* s–t
    min-cut value`` (one max-flow per decreased pair; ``+inf`` when
    ``D`` is empty).  A tree edge ``e`` is kept iff

    * no net pair crosses ``e.child_side`` (its recorded cut's weight
      is unchanged — an upper bound at the old label), **and**
    * ``e.weight <= L`` (the *L-guard*, the lower bound): any
      child–parent cut either crosses no net pair (weight still
      ``>= e.weight`` by the old tree's exactness), crosses a
      decreased pair ``(u, v)`` (then it separates ``u`` from ``v``,
      so its new weight is ``>= lambda_new(u, v) >= L >= e.weight``),
      or crosses only increases (new weight ``>=`` old ``>=
      e.weight``).

    Without the L-guard, keeping every uncrossed edge is **unsound**:
    an uncrossed heavy edge's label can go stale when a decrease
    elsewhere opens a cheaper child–parent cut that crosses the
    decreased pair.  Every other edge is recomputed with one max-flow
    on ``graph``.  Kept edges keep their recorded side verbatim, so
    repairs compose: sides only change when their edge is recomputed.

    The repaired tree is *flow-equivalent light*: every label is an
    exact min-cut value of its own (child, parent) pair, which makes
    the tree-path minimum a lower bound for any ``s``–``t`` query (the
    min-cut triangle inequality) and the minimum label the exact
    global min cut.  The matching upper bound needs a per-query
    certificate — some argmin path edge whose recorded side separates
    ``s`` from ``t`` — exactly the check
    :meth:`repro.service.oracle.CutOracle.st_min_cut` already applies
    to masked trees.

    ``max_flows`` caps the total flow budget (the L-flows plus the
    recomputed edges); when the repair would exceed it the function
    returns ``None`` and the caller should rebuild instead.

    ``prior`` is a Dinic-built full tree (usually the one ``tree``
    descends from): a recomputed edge whose ``(child, parent)`` flow it
    recorded, with a support that misses every row changed since, takes
    that result instead of running the flow (the returned tree's
    ``replayed``).  The budget still counts it, so the repair-or-rebuild
    decision and the result are those of a call without ``prior``.
    """
    net = [(u, v, old, new) for u, v, old, new in changed if old != new]
    if len(graph.components()) != 1:
        raise ValueError("graph must be connected")
    tree_vertices = {e.child for e in tree.edges}
    tree_vertices.update(e.parent for e in tree.edges)
    if tree_vertices != set(graph.vertices()):
        return None
    if not net:
        return GomoryHuTree(graph=graph, edges=tree.edges), ()
    decreased = [(u, v) for u, v, old, new in net if new < old]
    if max_flows is not None and len(decreased) > max_flows:
        return None

    solver = DinicSolver(graph)

    # One max-flow per decreased pair establishes L; the flow results
    # are kept so a recomputed tree edge whose endpoints *are* a
    # decreased pair reuses its L-flow instead of paying a second one.
    limit = float("inf")
    dec_flows: dict[frozenset, object] = {}
    for u, v in decreased:
        res = solver.max_flow(u, v)
        dec_flows[frozenset((u, v))] = (u, res)
        limit = min(limit, res.value)

    def crossed(side: frozenset) -> bool:
        return any((u in side) != (v in side) for u, v, _, _ in net)

    recompute = tuple(
        e.child
        for e in tree.edges
        if e.weight > limit or crossed(e.child_side)
    )
    todo = set(recompute)
    fresh_flows = sum(
        1
        for e in tree.edges
        if e.child in todo
        and frozenset((e.child, e.parent)) not in dec_flows
    )
    if max_flows is not None and len(decreased) + fresh_flows > max_flows:
        return None

    vertices = graph.vertices()
    replay = _replayable(prior, "dinic", vertices, graph.edge_arrays())
    replayed = 0
    all_vertices = frozenset(vertices)
    edges = []
    for e in tree.edges:
        if e.child in todo:
            reuse = dec_flows.get(frozenset((e.child, e.parent)))
            if reuse is not None:
                source, res = reuse
                side = (
                    res.source_side
                    if source == e.child
                    else all_vertices - res.source_side
                )
            else:
                res = replay.get((e.child, e.parent))
                if res is None:
                    res = solver.max_flow(e.child, e.parent)
                else:
                    replayed += 1
                side = res.source_side
            edges.append(
                GomoryHuEdge(
                    child=e.child,
                    parent=e.parent,
                    weight=res.value,
                    child_side=side,
                )
            )
        else:
            edges.append(e)
    return (
        GomoryHuTree(graph=graph, edges=tuple(edges), replayed=replayed),
        recompute,
    )


def gomory_hu_tree_contracted(
    graph: Graph, *, engine: str = "dinic"
) -> GomoryHuTree:
    """The original Gomory–Hu construction (with vertex contraction).

    Gusfield's variant (:func:`gomory_hu_tree`) runs every max-flow on
    the *full* graph; the 1961 construction instead contracts, for each
    split, every already-separated subtree to a single vertex, so its
    flows run on shrinking graphs.  Both satisfy Definition 8; they may
    return *different* trees (min cuts are not unique), which makes
    their agreement on all n(n-1)/2 pairwise cut values a strong
    differential test of the whole flow stack — and on large dense
    inputs the contracted variant is the faster of the two.

    Implementation: the supernode-splitting loop from Gomory & Hu's
    paper.  Each tree edge records the concrete original-vertex side of
    its defining cut, so ``kcut_upper_bound`` works identically.
    """
    vertices = graph.vertices()
    if len(vertices) < 2:
        raise ValueError("need n >= 2")
    if len(graph.components()) != 1:
        raise ValueError("graph must be connected")
    solver_cls = _flow_engine(engine)

    # Tree over supernodes: nodes[i] is a set of original vertices.
    nodes: list[set] = [set(vertices)]
    adj: dict[int, dict[int, float]] = {0: {}}
    # side_of[(i, j)]: original vertices on j's side of tree edge {i, j}.
    side_of: dict[tuple[int, int], frozenset] = {}

    while True:
        split = next((i for i, s in enumerate(nodes) if len(s) > 1), None)
        if split is None:
            break
        members = sorted(nodes[split], key=str)
        s, t = members[0], members[1]

        # Components of the tree minus `split`, each contracted to one
        # quotient vertex.
        comp_of: dict[int, int] = {}
        for start in adj[split]:
            if start in comp_of:
                continue
            comp_id = len(set(comp_of.values()))
            stack = [start]
            comp_of[start] = comp_id
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y != split and y not in comp_of:
                        comp_of[y] = comp_of[x]
                        stack.append(y)
        rep: dict = {}
        for v in nodes[split]:
            rep[v] = v
        for node_idx, comp_id in comp_of.items():
            for v in nodes[node_idx]:
                rep[v] = ("component", comp_id)
        quotient, _ = graph.quotient(rep)

        res = solver_cls(quotient).max_flow(s, t)
        a_side = res.source_side  # quotient vertices, contains s

        # Split the supernode along the cut.
        s_a = {v for v in nodes[split] if v in a_side}
        s_b = nodes[split] - s_a
        new = len(nodes)
        nodes[split] = s_a
        nodes.append(s_b)
        adj[new] = {}
        # Original-vertex side of the new edge, on `new`'s (t's) side.
        b_vertices = frozenset(
            v for v in vertices if rep[v] not in a_side
        )

        # Reattach former neighbours by which side their contraction fell.
        for nbr in list(adj[split]):
            w = adj[split][nbr]
            stored = side_of.pop((split, nbr))
            stored_rev = side_of.pop((nbr, split))
            contracted = ("component", comp_of[nbr])
            if contracted not in a_side:
                del adj[split][nbr]
                del adj[nbr][split]
                adj[new][nbr] = w
                adj[nbr][new] = w
                side_of[(new, nbr)] = stored
                side_of[(nbr, new)] = stored_rev
            else:
                side_of[(split, nbr)] = stored
                side_of[(nbr, split)] = stored_rev
        adj[split][new] = res.value
        adj[new][split] = res.value
        side_of[(split, new)] = b_vertices
        side_of[(new, split)] = frozenset(vertices) - b_vertices

    # Root the singleton tree at vertices[0] and emit parent edges.
    only = {next(iter(s)): i for i, s in enumerate(nodes)}
    root_idx = only[vertices[0]]
    parent_edges: list[GomoryHuEdge] = []
    seen = {root_idx}
    stack = [root_idx]
    vertex_of = {i: next(iter(s)) for i, s in enumerate(nodes)}
    while stack:
        x = stack.pop()
        for y, w in adj[x].items():
            if y in seen:
                continue
            seen.add(y)
            stack.append(y)
            parent_edges.append(
                GomoryHuEdge(
                    child=vertex_of[y],
                    parent=vertex_of[x],
                    weight=w,
                    child_side=side_of[(x, y)],
                )
            )
    return GomoryHuTree(graph=graph, edges=tuple(parent_edges))
