"""Ablations of Section 3's design choices (for the ablation benches).

The paper's decomposition makes two structural moves whose value the
ablation experiments quantify:

* **binarized paths** — replacing each heavy path by an almost complete
  binary tree.  :func:`low_depth_decomposition_no_binarization` labels
  heavy-path vertices by their *position* instead: still a valid
  Definition-1 decomposition (each prefix of a path has a unique
  minimum position), but a single heavy path of length L now spends L
  levels instead of ``log2 L`` — heights degrade from ``O(log^2 n)`` to
  ``Theta(n)`` on paths, which is exactly why Definition 5 exists.

* **the decomposition itself** —
  :func:`low_depth_decomposition_bfs_depth` labels by plain tree depth.
  That labeling is *always* Definition-1-valid (each ``T_i`` component
  is a subtree rooted at a single depth-``i`` vertex), which shows that
  validity alone is trivial; its height equals the tree height,
  ``Theta(n)`` on paths, which is what the heavy-light + binarized
  construction exists to beat.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .low_depth import low_depth_decomposition
from .rooted import root_tree

Vertex = Hashable


def _positions(num_leaves: int) -> tuple[range, range]:
    """Path position ``i`` is labelled ``i + 1``, and light children
    hang below it."""
    depths = range(1, num_leaves + 1)
    return depths, depths


def low_depth_decomposition_no_binarization(
    vertices: Sequence[Vertex],
    edges: Iterable[tuple[Vertex, Vertex]],
    *,
    root: Vertex | None = None,
) -> dict[Vertex, int]:
    """Ablated Algorithm 2: heavy paths labelled by position, not tree.

    Returns the labeling only (no binarized structures exist).  Valid
    per Definition 1, but with height ``Theta(n)`` on path-like trees.
    """
    return low_depth_decomposition(
        vertices, edges, root=root, depths=_positions
    ).label


def low_depth_decomposition_bfs_depth(
    vertices: Sequence[Vertex],
    edges: Iterable[tuple[Vertex, Vertex]],
    *,
    root: Vertex | None = None,
) -> dict[Vertex, int]:
    """Strawman labeling: plain tree depth.

    *Always* satisfies Definition 1 — removing vertices of label < i
    leaves subtrees each rooted at exactly one depth-``i`` vertex (the
    paper notes this: "it is always true that at each level, each
    connected component contains at most one vertex at the next
    level").  Validity is the easy part; the height equals the tree
    height, i.e. ``Theta(n)`` on paths — the whole point of Section 3
    is beating that to ``O(log^2 n)``.
    """
    tree = root_tree(vertices, edges, root=root)
    return dict(tree.depth)


def naive_height(label: dict[Vertex, int]) -> int:
    return max(label.values())
