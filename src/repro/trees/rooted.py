"""Rooted tree representation (Section 3.1, "Rooting the Tree").

Lemma 4 roots and orients a forest in ``O(1/eps)`` AMPC rounds; the
genuinely-executed implementation lives in
:mod:`repro.ampc.primitives.euler`.  This module provides the fast
sequential equivalent used inside the larger pipelines (identical
outputs — asserted by tests) plus the :class:`RootedTree` container the
rest of Section 3 consumes: parents, depths, subtree sizes, children in
deterministic order, preorder numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

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


def root_tree(
    vertices: Sequence[Vertex],
    edges: Iterable[tuple[Vertex, Vertex]],
    *,
    root: Vertex | None = None,
) -> RootedTree:
    """Sequential rooting: stack DFS orientation + subtree sizes.

    Mirrors the output contract of Lemma 4 / :func:`ampc_root_forest`
    for a single tree; ``root`` defaults to the minimum vertex under a
    type-stable order.  Children are sorted the same way, so preorder
    matches the AMPC Euler-tour order.  A popped vertex discovers all
    its unvisited neighbours at once, in that order; ``parent`` keeps
    discovery order, which numbers the heavy paths and so fixes each
    level's leader order (:mod:`repro.trees.low_depth` labels on
    indices in the same order).
    """
    vertices = list(vertices)
    if not vertices:
        raise ValueError("empty vertex set")
    adjacency: dict[Vertex, list[Vertex]] = {v: [] for v in vertices}
    edge_count = 0
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
        edge_count += 1
    if edge_count != len(vertices) - 1:
        raise ValueError(
            f"not a tree: {len(vertices)} vertices but {edge_count} edges"
        )
    # One type-stable sort key per vertex, computed once.
    order = {v: _stable_key(v) for v in vertices}
    for v in adjacency:
        adjacency[v].sort(key=order.__getitem__)
    if root is None:
        root = min(vertices, key=order.__getitem__)

    parent: dict[Vertex, Vertex | None] = {root: None}
    depth: dict[Vertex, int] = {root: 1}
    children: dict[Vertex, list[Vertex]] = {v: [] for v in vertices}
    stack: list[Vertex] = [root]
    visited = {root}
    while stack:
        v = stack.pop()
        # Children are appended in sorted adjacency order, so each
        # child list comes out sorted.
        for u in adjacency[v]:
            if u not in visited:
                visited.add(u)
                parent[u] = v
                depth[u] = depth[v] + 1
                children[v].append(u)
                stack.append(u)
    if len(visited) != len(vertices):
        raise ValueError("edge set does not connect all vertices")

    # Preorder in child (adjacency) order.  Note: the AMPC rooting's
    # preorder visits children in cyclic order starting after the
    # entering arc, so the two preorders may differ — both are valid
    # DFS preorders (contiguous subtree ranges), which is the only
    # property Section 3 consumes (heavy paths are sorted by depth,
    # identical under any preorder).
    preorder: dict[Vertex, int] = {}
    counter = 0
    stack2: list[Vertex] = [root]
    while stack2:
        v = stack2.pop()
        preorder[v] = counter
        counter += 1
        for u in reversed(children[v]):
            stack2.append(u)

    # ``parent`` is in discovery order, each vertex after its parent,
    # so in reverse every subtree is complete before it is added up.
    subtree: dict[Vertex, int] = {v: 1 for v in vertices}
    for v in reversed(parent):
        p = parent[v]
        if p is not None:
            subtree[p] += subtree[v]

    return RootedTree(
        root=root,
        parent=parent,
        children=children,
        depth=depth,
        subtree_size=subtree,
        preorder=preorder,
    )


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
