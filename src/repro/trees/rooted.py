"""Rooted tree representation (Section 3.1, "Rooting the Tree").

Lemma 4 roots and orients a forest in ``O(1/eps)`` AMPC rounds; the
genuinely-executed implementation lives in
:mod:`repro.ampc.primitives.euler`.  This module provides the fast
sequential equivalent used inside the larger pipelines (identical
outputs — asserted by tests): :func:`root_indices`, one stack DFS on
vertex indices whose :class:`Rooting` lists step 2's labeler and
Algorithm 3's level structures read as they are, and from which
:func:`root_tree` builds the :class:`RootedTree` container the tests,
figures and validators consume: parents, depths, subtree sizes,
children in deterministic order, preorder numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Hashable, Iterable, NamedTuple, Sequence

from ..ampc import AMPCConfig, RoundLedger
from ..ampc.primitives.euler import ampc_root_forest
from ..ampc.primitives.listrank import _stable_key

Vertex = Hashable


@dataclass
class RootedTree:
    """A rooted tree (or forest component) with derived quantities."""

    root: Vertex
    parent: dict[Vertex, Vertex | None]
    children: dict[Vertex, list[Vertex]]
    depth: dict[Vertex, int]
    subtree_size: dict[Vertex, int]
    preorder: dict[Vertex, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.parent)

    def vertices(self) -> list[Vertex]:
        return list(self.parent.keys())

    def is_leaf(self, v: Vertex) -> bool:
        return not self.children[v]

    def path_to_root(self, v: Vertex) -> list[Vertex]:
        """Vertices from ``v`` up to (and including) the root."""
        out = [v]
        while self.parent[out[-1]] is not None:
            out.append(self.parent[out[-1]])
        return out

    def edges(self) -> Iterable[tuple[Vertex, Vertex]]:
        """(child, parent) pairs."""
        for v, p in self.parent.items():
            if p is not None:
                yield (v, p)

    def validate(self) -> None:
        """Internal-consistency check (used by property tests)."""
        n = self.num_vertices
        if self.parent[self.root] is not None:
            raise ValueError("root must have no parent")
        for v, p in self.parent.items():
            if p is None:
                if v != self.root:
                    raise ValueError(f"non-root {v!r} has no parent")
                if self.depth[v] != 1:
                    raise ValueError("root depth must be 1")
            else:
                if self.depth[v] != self.depth[p] + 1:
                    raise ValueError(f"depth broken at {v!r}")
                if v not in self.children[p]:
                    raise ValueError(f"child lists broken at {v!r}")
        if self.subtree_size[self.root] != n:
            raise ValueError("root subtree size must be n")
        for v in self.parent:
            expect = 1 + sum(self.subtree_size[c] for c in self.children[v])
            if self.subtree_size[v] != expect:
                raise ValueError(f"subtree size broken at {v!r}")


class Rooting(NamedTuple):
    """A tree rooted on vertex indices: Section 3's one stack DFS
    (:func:`root_indices`), read by :func:`root_tree`, the low-depth
    labeler and Algorithm 3's level structures."""

    root: int
    #: index -> parent index, -1 at the root
    parent: list[int]
    #: indices in discovery order, the root first; a vertex's children
    #: are discovered together, in type-stable order
    discovered: list[int]
    #: index -> neighbour indices, in type-stable order
    adjacency: list[list[int]]
    #: index -> subtree size
    size: list[int]
    #: indices in the DFS's pop order, a preorder: every subtree is a
    #: contiguous run, children in reverse type-stable order
    preorder: list[int]

    def rooted_tree(self, vertices: Sequence[Vertex]) -> RootedTree:
        """The :class:`RootedTree` of this rooting over ``vertices``."""
        V = vertices
        root = V[self.root]
        parent: dict[Vertex, Vertex | None] = {root: None}
        depth: dict[Vertex, int] = {root: 1}
        children: dict[Vertex, list[Vertex]] = {v: [] for v in V}
        for x in islice(self.discovered, 1, None):
            v, p = V[x], V[self.parent[x]]
            parent[v] = p
            depth[v] = depth[p] + 1
            children[p].append(v)

        # Preorder in child (adjacency) order.  Note: the AMPC rooting's
        # preorder visits children in cyclic order starting after the
        # entering arc, so the two preorders may differ — both are valid
        # DFS preorders (contiguous subtree ranges), which is the only
        # property Section 3 consumes (heavy paths are sorted by depth,
        # identical under any preorder).
        preorder: dict[Vertex, int] = {}
        counter = 0
        stack: list[Vertex] = [root]
        while stack:
            v = stack.pop()
            preorder[v] = counter
            counter += 1
            for u in reversed(children[v]):
                stack.append(u)

        return RootedTree(
            root=root,
            parent=parent,
            children=children,
            depth=depth,
            subtree_size=dict(zip(V, self.size)),
            preorder=preorder,
        )


def root_indices(
    vertices: Sequence[Vertex],
    edges: Iterable[tuple[Vertex, Vertex]] = (),
    *,
    rows: tuple[Sequence[int], Sequence[int]] | None = None,
    root: Vertex | None = None,
    rank: Sequence[int] | None = None,
) -> Rooting:
    """Sequential rooting on indices: stack DFS orientation + subtree
    sizes.

    The tree is ``edges`` (vertex pairs) or ``rows``, its edges as two
    lists of endpoint indices into ``vertices``.  Mirrors the output
    contract of Lemma 4 / :func:`ampc_root_forest` for a single tree;
    ``root`` defaults to the minimum vertex under a type-stable order.
    Adjacency lists are sorted the same way, stably, so equal keys keep
    edge order.  The order is ``rank``, one integer per vertex (equal
    keys, equal ranks), :func:`stable_ranks` by default.
    A popped vertex discovers all its undiscovered neighbours at once,
    in that order; discovery order numbers the heavy paths and so fixes
    each level's leader order (:mod:`repro.trees.low_depth`).
    """
    n = len(vertices)
    if not n:
        raise ValueError("empty vertex set")
    if rows is None:
        index = {x: i for i, x in enumerate(vertices)}
        rows = ([], [])
        for a, b in edges:
            rows[0].append(index[a])
            rows[1].append(index[b])
    us, vs = rows
    if len(us) != n - 1:
        raise ValueError(f"not a tree: {n} vertices but {len(us)} edges")
    skey = stable_ranks(vertices) if rank is None else rank
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(us, vs):
        adjacency[a].append(b)
        adjacency[b].append(a)
    if root is None:
        r = min(range(n), key=skey.__getitem__)
    else:
        r = vertices.index(root)

    # The root is its own parent while the DFS runs, so that -1 marks
    # exactly the undiscovered.
    parent = [-1] * n
    parent[r] = r
    discovered = [r]
    preorder = []
    stack = [r]
    by_key = skey.__getitem__
    while stack:
        x = stack.pop()
        preorder.append(x)
        adj = adjacency[x]
        if len(adj) > 1:
            adj.sort(key=by_key)
        for y in adj:
            if parent[y] == -1:
                parent[y] = x
                discovered.append(y)
                stack.append(y)
    if len(discovered) != n:
        raise ValueError("edge set does not connect all vertices")
    parent[r] = -1

    # In reverse discovery order every subtree is complete before it
    # is added up.
    size = [1] * n
    for x in reversed(discovered):
        p = parent[x]
        if p >= 0:
            size[p] += size[x]
    return Rooting(r, parent, discovered, adjacency, size, preorder)


def stable_ranks(vertices: Sequence[Vertex]) -> list[int]:
    """Each vertex's rank in :func:`root_indices`'s type-stable order,
    equal keys sharing a rank: its ``rank`` for ``vertices`` or any
    subset of them."""
    skey = [_stable_key(x) for x in vertices]
    rank = [0] * len(skey)
    r, previous = -1, None
    for i in sorted(range(len(skey)), key=skey.__getitem__):
        if r < 0 or skey[i] != previous:
            r, previous = r + 1, skey[i]
        rank[i] = r
    return rank


def root_tree(
    vertices: Sequence[Vertex],
    edges: Iterable[tuple[Vertex, Vertex]],
    *,
    root: Vertex | None = None,
) -> RootedTree:
    """:func:`root_indices` as a :class:`RootedTree`: children come in
    type-stable order, so preorder matches the AMPC Euler-tour order,
    and ``parent`` keeps discovery order."""
    vertices = list(vertices)
    return root_indices(vertices, edges, root=root).rooted_tree(vertices)


def root_tree_ampc(
    vertices: Sequence[Vertex],
    edges: Iterable[tuple[Vertex, Vertex]],
    *,
    config: AMPCConfig | None = None,
    ledger: RoundLedger | None = None,
    root: Vertex | None = None,
) -> RootedTree:
    """Lemma-4 rooting on the AMPC simulator (measured rounds).

    Produces the same :class:`RootedTree` as :func:`root_tree`; tests
    assert equality.  Use for round-accounting experiments; use
    :func:`root_tree` inside larger pipelines for speed.
    """
    vertices = list(vertices)
    edge_list = list(edges)
    if config is None:
        config = AMPCConfig(n_input=max(1, len(vertices)))
    roots = None
    if root is not None:
        roots = {0: root}  # single component by contract
    rooted = ampc_root_forest(
        config, vertices, edge_list, roots=roots, ledger=ledger
    )
    the_root = root if root is not None else rooted.root_of[vertices[0]]
    children: dict[Vertex, list[Vertex]] = {v: [] for v in vertices}
    for v, p in rooted.parent.items():
        if p is not None:
            children[p].append(v)
    for v in children:
        children[v].sort(key=_stable_key)
    return RootedTree(
        root=the_root,
        parent=rooted.parent,
        children=children,
        depth=rooted.depth,
        subtree_size=rooted.subtree_size,
        preorder=rooted.preorder,
    )
