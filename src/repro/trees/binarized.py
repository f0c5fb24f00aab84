"""Binarized paths (Section 3.3, Definition 5, Observations 3–5).

A heavy path can be as long as ``Theta(n)``, so recursing on it naively
would blow the decomposition depth.  Definition 5 replaces each heavy
path ``P`` with an **almost complete binary tree** with ``|P|`` leaves
whose pre-order leaf sequence equals ``P``'s order — the *binarized
path*.  Splitting at internal nodes of this tree then halves the path
piece at every level, giving depth ``floor(log2 |P|) + 1``
(Observation 3).

Nodes are heap-indexed ``1 .. 2L-1`` (BFS layout): ``parent(i) = i//2``,
children ``2i`` / ``2i+1``; with ``L`` leaves the leaves are exactly the
indices ``> (2L-1)//2``, and their left-to-right (= pre-order) order is
the deepest layer first, then the remainder of the shallower layer —
see :meth:`AlmostCompleteBinaryTree.leaves_preorder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Hashable, Sequence

Vertex = Hashable


@dataclass(frozen=True)
class AlmostCompleteBinaryTree:
    """Heap-indexed almost complete binary tree with ``num_leaves`` leaves.

    Observation 3: ``2L - 1`` nodes, max depth ``floor(log2 L) + 1``
    (root at depth 1), every layer full except possibly the last.
    """

    num_leaves: int

    def __post_init__(self) -> None:
        if self.num_leaves < 1:
            raise ValueError("need at least one leaf")

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return 2 * self.num_leaves - 1

    def parent(self, i: int) -> int | None:
        self._check(i)
        return None if i == 1 else i // 2

    def left(self, i: int) -> int | None:
        self._check(i)
        c = 2 * i
        return c if c <= self.num_nodes else None

    def right(self, i: int) -> int | None:
        self._check(i)
        c = 2 * i + 1
        return c if c <= self.num_nodes else None

    def is_leaf(self, i: int) -> bool:
        self._check(i)
        return 2 * i > self.num_nodes

    def is_left_child(self, i: int) -> bool:
        self._check(i)
        return i != 1 and i % 2 == 0

    def is_right_child(self, i: int) -> bool:
        self._check(i)
        return i != 1 and i % 2 == 1

    def depth(self, i: int) -> int:
        """Depth with the root at 1 (the paper's convention)."""
        self._check(i)
        return i.bit_length()

    @property
    def max_depth(self) -> int:
        return self.num_nodes.bit_length()

    def _check(self, i: int) -> None:
        if not 1 <= i <= self.num_nodes:
            raise ValueError(f"node index {i} out of range 1..{self.num_nodes}")

    # ------------------------------------------------------------------
    def leaves_preorder(self) -> list[int]:
        """Leaf indices in left-to-right (= pre-order) order.

        The heap fills the last layer left to right, so the deepest
        leaves (indices ``2^D .. N``) come first in tree order, followed
        by the remaining shallower leaves (``N//2 + 1 .. 2^D - 1``).
        """
        n_nodes = self.num_nodes
        deepest_start = 1 << (n_nodes.bit_length() - 1)
        deep = list(range(deepest_start, n_nodes + 1))
        shallow = list(range(n_nodes // 2 + 1, deepest_start))
        return deep + shallow

    def preorder(self) -> list[int]:
        """Full pre-order traversal (iterative; used by tests)."""
        out: list[int] = []
        stack = [1]
        while stack:
            i = stack.pop()
            out.append(i)
            r, l = self.right(i), self.left(i)
            if r is not None:
                stack.append(r)
            if l is not None:
                stack.append(l)
        return out

    def lca(self, a: int, b: int) -> int:
        """Lowest common ancestor via heap-index alignment."""
        self._check(a)
        self._check(b)
        while a != b:
            if a > b:
                a //= 2
            else:
                b //= 2
        return a

    def leftmost_leaf(self, i: int) -> int:
        """Leftmost leaf of the subtree rooted at ``i``."""
        while not self.is_leaf(i):
            i = 2 * i
        return i


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
        return depth_table(len(self.path))[0][self._position[v]]

    def leaf_depth(self, v: Vertex) -> int:
        """Depth of ``v``'s leaf inside this binarized path."""
        return depth_table(len(self.path))[1][self._position[v]]

    @cached_property
    def _position(self) -> dict[Vertex, int]:
        return {v: i for i, v in enumerate(self.path)}

    def validate(self) -> None:
        t = self.tree
        if t.num_leaves != len(self.path):
            raise ValueError("leaf count mismatch")
        order = [self.vertex_of[i] for i in t.leaves_preorder()]
        if order != list(self.path):
            raise ValueError("pre-order traversal does not agree with path")


@lru_cache(maxsize=256)
def depth_table(num_leaves: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Anchor and leaf depths by path position, for a path of
    ``num_leaves`` vertices: the closed form of
    :meth:`BinarizedPath.label_anchor` on heap indices.

    Climbing while a left child strips the leaf's trailing zero bits;
    if that reaches the root (the leaf is a power of two) the anchor
    is the leaf, otherwise the stopping node's parent, one level up.

    >>> depth_table(3)  # leaves 4, 5, 3
    ((3, 2, 1), (3, 3, 2))
    """
    leaves = AlmostCompleteBinaryTree(num_leaves).leaves_preorder()
    anchor = []
    for leaf in leaves:
        z = leaf // (leaf & -leaf)
        anchor.append(leaf.bit_length() if z == 1 else z.bit_length() - 1)
    return tuple(anchor), tuple(leaf.bit_length() for leaf in leaves)


def binarize_path(path: Sequence[Vertex]) -> BinarizedPath:
    """Build the binarized path of a heavy path (Lemma 6)."""
    path = list(path)
    tree = AlmostCompleteBinaryTree(num_leaves=len(path))
    leaves = tree.leaves_preorder()
    leaf_of = {v: leaves[i] for i, v in enumerate(path)}
    vertex_of = {leaf: v for v, leaf in leaf_of.items()}
    return BinarizedPath(path=path, tree=tree, leaf_of=leaf_of, vertex_of=vertex_of)
