"""Frozen object-path low-depth decomposition (the reference).

This is Algorithm 2 as ``repro.trees`` ran it before the labels were
computed on vertex indices: ``root_tree`` built a dict-of-labels
``RootedTree``, ``heavy_light_decomposition``, ``build_meta_tree`` and
one ``binarize_path`` per heavy path built their object structures,
and ``_decompose_from_tree`` labeled each vertex by climbing its
binarized path (``BinarizedPath.label_anchor``) under a recursive
offset over the meta tree.  The code below is kept verbatim --
function bodies and comments -- as the differential reference for the
index labeler (``tests/test_low_depth_golden.py``) and as the "old"
side of ``benchmarks/bench_low_depth.py::test_step2_speedup``.  The
containers ``RootedTree`` and ``AlmostCompleteBinaryTree`` are
imported from ``repro`` unchanged.

Two additions.  The containers ``HeavyLight`` and ``MetaTree`` are
copied in verbatim, methods included, from ``trees/heavy_light.py`` and
``trees/meta_tree.py``, which the decomposition's ``paths`` and
``meta_parent`` views replaced.  And :func:`low_depth_decomposition`
records the vertex list it was given, and
:class:`LowDepthDecomposition` reads ``labels`` and
``order`` off its label dict in that order -- the index view the
frozen ``index_tree`` in ``tests/algo1_reference.py`` reads -- with
the ``{v: i}`` map the old ``index_tree`` built.  Nothing in ``src/``
imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro.ampc.primitives.listrank import _stable_key
from repro.trees.binarized import AlmostCompleteBinaryTree
from repro.trees.rooted import RootedTree

Vertex = Hashable
MetaVertex = int


# --------------------------------------------------------------------
# Rooting (trees/rooted.py)
# --------------------------------------------------------------------
def root_tree(
    vertices: Sequence[Vertex],
    edges: Iterable[tuple[Vertex, Vertex]],
    *,
    root: Vertex | None = None,
) -> RootedTree:
    """Sequential rooting: BFS orientation + postorder subtree sizes.

    Mirrors the output contract of Lemma 4 / :func:`ampc_root_forest`
    for a single tree; ``root`` defaults to the minimum vertex under a
    type-stable order.  Children are sorted the same way, so preorder
    matches the AMPC Euler-tour order.
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


# --------------------------------------------------------------------
# Heavy-light decomposition (trees/heavy_light.py)
# --------------------------------------------------------------------
@dataclass
class HeavyLight:
    """Heavy-light decomposition of a rooted tree.

    Attributes
    ----------
    heavy_child:
        ``heavy_child[v]`` is the unique heavy child of internal ``v``
        (absent for leaves).
    paths:
        The heavy paths, each listed **top-down** (shallowest vertex
        first).  Singleton paths appear for vertices on no heavy edge.
    path_of:
        Vertex -> index into :attr:`paths`.
    position:
        Vertex -> index within its heavy path.
    """

    tree: RootedTree
    heavy_child: dict[Vertex, Vertex]
    paths: list[list[Vertex]]
    path_of: dict[Vertex, int]
    position: dict[Vertex, int]

    # ------------------------------------------------------------------
    def is_heavy_edge(self, child: Vertex, parent: Vertex) -> bool:
        """Is (child, parent) a heavy edge (w.r.t. the rooted tree)?"""
        return self.heavy_child.get(parent) == child

    def path_head(self, v: Vertex) -> Vertex:
        """Shallowest vertex of ``v``'s heavy path."""
        return self.paths[self.path_of[v]][0]

    def light_edges_to_root(self, v: Vertex) -> int:
        """Number of light edges on the path from ``v`` to the root."""
        count = 0
        cur: Vertex | None = v
        tree = self.tree
        while tree.parent[cur] is not None:
            p = tree.parent[cur]
            if not self.is_heavy_edge(cur, p):
                count += 1
            cur = p
        return count

    def heavy_paths_to_root(self, v: Vertex) -> int:
        """Number of distinct heavy paths met walking from ``v`` to root."""
        seen = set()
        cur: Vertex | None = v
        while cur is not None:
            seen.add(self.path_of[cur])
            cur = self.tree.parent[cur]
        return len(seen)

    def validate(self) -> None:
        """Check Observation 2 and the partition property."""
        covered: set[Vertex] = set()
        for path in self.paths:
            for a, b in zip(path, path[1:]):
                if self.heavy_child.get(a) != b:
                    raise ValueError(f"non-heavy edge inside path at {a!r}->{b!r}")
            overlap = covered.intersection(path)
            if overlap:
                raise ValueError(f"paths overlap on {overlap!r}")
            covered.update(path)
        if covered != set(self.tree.parent.keys()):
            raise ValueError("paths do not cover the vertex set")
        for v in self.tree.parent:
            if self.tree.children[v] and v not in self.heavy_child:
                raise ValueError(f"internal vertex {v!r} lacks a heavy child")



def heavy_light_decomposition(tree: RootedTree) -> HeavyLight:
    """Compute the decomposition (host-side; the AMPC cost is Lemma 5's).

    The heavy child of each internal vertex is the child with maximum
    subtree size, first-in-child-order on ties — deterministic, as
    Definition 2's "arbitrarily choose exactly one" permits.
    """
    heavy_child: dict[Vertex, Vertex] = {}
    for v in tree.parent:
        kids = tree.children[v]
        if not kids:
            continue
        best = kids[0]
        for c in kids[1:]:
            if tree.subtree_size[c] > tree.subtree_size[best]:
                best = c
        heavy_child[v] = best

    # Heavy paths: start at every vertex whose parent edge is light (or
    # absent) and follow heavy children downwards.
    paths: list[list[Vertex]] = []
    path_of: dict[Vertex, int] = {}
    position: dict[Vertex, int] = {}
    for v in tree.parent:
        p = tree.parent[v]
        starts_path = p is None or heavy_child.get(p) != v
        if not starts_path:
            continue
        path = [v]
        while path[-1] in heavy_child:
            path.append(heavy_child[path[-1]])
        idx = len(paths)
        paths.append(path)
        for pos, u in enumerate(path):
            path_of[u] = idx
            position[u] = pos
    return HeavyLight(
        tree=tree,
        heavy_child=heavy_child,
        paths=paths,
        path_of=path_of,
        position=position,
    )


# --------------------------------------------------------------------
# Meta tree (trees/meta_tree.py)
# --------------------------------------------------------------------
@dataclass
class MetaTree:
    """The contracted tree of heavy paths.

    Attributes
    ----------
    hl:
        The underlying heavy-light decomposition (paths index = meta id).
    parent:
        Meta vertex -> parent meta vertex (None for the root path).
    children:
        Meta vertex -> child meta vertices in deterministic order.
    attach:
        For each non-root meta vertex ``P``, the vertex of the *parent
        path* that the head of ``P`` hangs from (the light edge's upper
        endpoint).
    depth:
        Meta-tree depth (root path = 1).
    """

    hl: HeavyLight
    parent: dict[MetaVertex, MetaVertex | None]
    children: dict[MetaVertex, list[MetaVertex]]
    attach: dict[MetaVertex, Vertex]
    depth: dict[MetaVertex, int]

    @property
    def root(self) -> MetaVertex:
        return self.hl.path_of[self.hl.tree.root]

    @property
    def num_meta_vertices(self) -> int:
        return len(self.parent)

    def meta_path(self, m: MetaVertex) -> list[Vertex]:
        """Original vertices of meta vertex ``m``, top-down."""
        return self.hl.paths[m]

    def meta_of(self, v: Vertex) -> MetaVertex:
        return self.hl.path_of[v]

    def validate(self) -> None:
        """Tree-ness and attachment consistency."""
        root = self.root
        if self.parent[root] is not None:
            raise ValueError("root meta vertex must have no parent")
        tree = self.hl.tree
        for m, p in self.parent.items():
            if p is None:
                continue
            head = self.hl.paths[m][0]
            up = tree.parent[head]
            if up is None or self.hl.path_of[up] != p:
                raise ValueError(f"meta parent of {m} inconsistent")
            if self.attach[m] != up:
                raise ValueError(f"attach vertex of {m} inconsistent")
            if self.depth[m] != self.depth[p] + 1:
                raise ValueError(f"meta depth broken at {m}")



def build_meta_tree(hl: HeavyLight) -> MetaTree:
    """Contract heavy paths into the meta tree (Definition 4)."""
    tree: RootedTree = hl.tree
    parent: dict[MetaVertex, MetaVertex | None] = {}
    children: dict[MetaVertex, list[MetaVertex]] = {
        m: [] for m in range(len(hl.paths))
    }
    attach: dict[MetaVertex, Vertex] = {}
    for m, path in enumerate(hl.paths):
        head = path[0]
        up = tree.parent[head]
        if up is None:
            parent[m] = None
        else:
            pm = hl.path_of[up]
            parent[m] = pm
            children[pm].append(m)
            attach[m] = up
    depth: dict[MetaVertex, int] = {}

    def meta_depth(m: MetaVertex) -> int:
        d = depth.get(m)
        if d is None:
            p = parent[m]
            d = 1 if p is None else meta_depth(p) + 1
            depth[m] = d
        return d

    for m in parent:
        meta_depth(m)
    return MetaTree(
        hl=hl, parent=parent, children=children, attach=attach, depth=depth
    )


# --------------------------------------------------------------------
# Binarized paths (trees/binarized.py)
# --------------------------------------------------------------------
@dataclass
class BinarizedPath:
    """A heavy path together with its almost complete binary tree.

    ``leaf_of[v]`` is the heap index of the leaf carrying path vertex
    ``v``; ``vertex_of[i]`` inverts it.  Pre-order agreement with the
    path order (Definition 5) holds by construction and is property-
    tested (Observation 5).
    """

    path: list[Vertex]
    tree: AlmostCompleteBinaryTree
    leaf_of: dict[Vertex, int]
    vertex_of: dict[int, Vertex]

    # ------------------------------------------------------------------
    def label_anchor(self, v: Vertex) -> int:
        """Heap node whose depth labels ``v`` (Algorithm 2, line 14).

        Climb from ``v``'s leaf while it is a left child; if the walk
        stops at the root, the anchor is the leaf itself; otherwise the
        anchor is the parent of the stopping node (``v`` is then the
        leftmost leaf-descendant of that parent's right child).
        """
        t = self.tree
        leaf = self.leaf_of[v]
        z = leaf
        while t.is_left_child(z):
            z = t.parent(z)  # type: ignore[assignment]
        if z == 1:
            return leaf
        return t.parent(z)  # type: ignore[return-value]

    def anchor_depth(self, v: Vertex) -> int:
        """Depth (root=1) of the label anchor inside this binarized path."""
        return self.tree.depth(self.label_anchor(v))

    def leaf_depth(self, v: Vertex) -> int:
        """Depth of ``v``'s leaf inside this binarized path."""
        return self.tree.depth(self.leaf_of[v])


def binarize_path(path: Sequence[Vertex]) -> BinarizedPath:
    """Build the binarized path of a heavy path (Lemma 6)."""
    path = list(path)
    tree = AlmostCompleteBinaryTree(num_leaves=len(path))
    leaves = tree.leaves_preorder()
    leaf_of = {v: leaves[i] for i, v in enumerate(path)}
    vertex_of = {leaf: v for v, leaf in leaf_of.items()}
    return BinarizedPath(path=path, tree=tree, leaf_of=leaf_of, vertex_of=vertex_of)


# --------------------------------------------------------------------
# The decomposition (trees/low_depth.py)
# --------------------------------------------------------------------
@dataclass
class LowDepthDecomposition:
    """The labeling plus every intermediate structure (for inspection).

    ``label[v]`` is the level of ``v`` (1-based).  ``height`` is
    ``max(label)``; Definition 1 requires ``height = O(log^2 n)``.
    """

    tree: RootedTree
    hl: HeavyLight
    meta: MetaTree
    binarized: dict[int, BinarizedPath]
    offset: dict[int, int]
    label: dict[Vertex, int]
    #: the vertex order the caller passed (added; see the module doc)
    vertices: list[Vertex] | None = None

    @property
    def height(self) -> int:
        return max(self.label.values())

    @property
    def labels(self) -> list[int]:
        """Labels indexed in :attr:`vertices` order (added)."""
        return [self.label[v] for v in self.vertices]

    @property
    def order(self) -> list[int]:
        """Vertex indices in label-dict order (added)."""
        index = {v: i for i, v in enumerate(self.vertices)}
        return [index[v] for v in self.label]

    def height_bound(self) -> int:
        n = self.tree.num_vertices
        log = math.floor(math.log2(max(2, n))) + 1
        return log * log


def low_depth_decomposition(
    vertices: Sequence[Vertex],
    edges: Iterable[tuple[Vertex, Vertex]],
    *,
    root: Vertex | None = None,
    precomputed_tree: RootedTree | None = None,
) -> LowDepthDecomposition:
    """Algorithm 2 (host-side computation; see the AMPC variant below)."""
    tree = (
        precomputed_tree
        if precomputed_tree is not None
        else root_tree(vertices, edges, root=root)
    )
    decomp = _decompose_from_tree(tree)
    decomp.vertices = list(vertices)
    return decomp


def _decompose_from_tree(tree: RootedTree) -> LowDepthDecomposition:
    hl = heavy_light_decomposition(tree)
    meta = build_meta_tree(hl)
    binarized: dict[int, BinarizedPath] = {
        m: binarize_path(path) for m, path in enumerate(hl.paths)
    }

    # Expanded-meta-tree depth offsets: the root of meta vertex m's
    # binarized tree hangs below the *leaf* of the attach vertex in the
    # parent meta vertex, so children start at that leaf's expanded depth.
    offset: dict[int, int] = {}

    def compute_offset(m: int) -> int:
        cached = offset.get(m)
        if cached is not None:
            return cached
        p = meta.parent[m]
        if p is None:
            val = 0
        else:
            attach = meta.attach[m]
            val = compute_offset(p) + binarized[p].leaf_depth(attach)
        offset[m] = val
        return val

    for m in meta.parent:
        compute_offset(m)

    label: dict[Vertex, int] = {}
    for m, bp in binarized.items():
        base = offset[m]
        for v in bp.path:
            label[v] = base + bp.anchor_depth(v)

    return LowDepthDecomposition(
        tree=tree,
        hl=hl,
        meta=meta,
        binarized=binarized,
        offset=offset,
        label=label,
    )
