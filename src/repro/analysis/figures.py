"""Structural reproduction of the paper's Figures 1–3 (experiment E8).

The paper's figures are illustrative, not measured:

* **Figure 1** — heavy-light decomposition of an example tree, vertices
  annotated with subtree sizes, heavy edges highlighted;
* **Figure 2** — the meta-tree obtained by contracting the heavy paths
  of the same tree;
* **Figure 3** — an MST fragment with per-edge contraction times and
  the time intervals of edges w.r.t. a vertex ``v`` with
  ``ldr_time(v) = 2``.

Reproducing them means: build the same structures with the library and
render them (ASCII), asserting the structural claims each figure makes
(heavy paths partition the tree; the meta-tree is the contraction; the
intervals are exactly what Lemma 13 computes).  The figure-1 tree is
reverse-engineered up to isomorphism (see workloads.trees).
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from ..core.intervals import edge_intervals
from ..core.keys import ContractionKeys
from ..core.ldr import build_level_structure, keyed_tree
from ..graph import Graph
from ..trees.low_depth import low_depth_decomposition
from ..workloads.trees import paper_figure1_tree

Vertex = Hashable


def render_figure1() -> str:
    """Figure 1: the tree with subtree sizes, heavy edges marked ``=``."""
    decomp = low_depth_decomposition(*paper_figure1_tree())
    tree = decomp.tree
    heavy = {a: b for path in decomp.paths for a, b in zip(path, path[1:])}
    lines = ["Figure 1 — heavy-light decomposition (= heavy edge, - light edge)"]

    def walk(v: Vertex, prefix: str, tag: str) -> None:
        size = tree.subtree_size[v]
        lines.append(f"{prefix}{tag}{v} [size={size}]")
        kids = sorted(tree.children[v], key=lambda c: (heavy.get(v) != c, str(c)))
        for i, c in enumerate(kids):
            last = i == len(kids) - 1
            edge = "==" if heavy.get(v) == c else "--"
            walk(c, prefix + ("   " if last else "|  "), f"+{edge} ")

    walk(tree.root, "", "")
    lines.append("")
    lines.append("heavy paths (top-down): ")
    for m, path in enumerate(decomp.paths):
        lines.append(f"  P{m}: " + " = ".join(str(v) for v in path))
    return "\n".join(lines)


def render_figure2() -> str:
    """Figure 2: the meta-tree of the same tree."""
    decomp = low_depth_decomposition(*paper_figure1_tree())
    children: list[list[int]] = [[] for _ in decomp.paths]
    for m, p in enumerate(decomp.meta_parent):
        if p >= 0:
            children[p].append(m)
    lines = ["Figure 2 — meta tree (heavy paths contracted)"]

    def walk(m: int, prefix: str, tag: str) -> None:
        label = "{" + ",".join(str(v) for v in decomp.paths[m]) + "}"
        lines.append(f"{prefix}{tag}M{m} {label}")
        for i, c in enumerate(children[m]):
            last = i == len(children[m]) - 1
            walk(c, prefix + ("   " if last else "|  "), "+- ")

    # Path 0 holds the root.
    walk(0, "", "")
    lines.append("")
    lines.append(f"meta vertices: {len(decomp.paths)}")
    return "\n".join(lines)


def figure3_instance() -> tuple[Graph, ContractionKeys, Vertex]:
    """A small weighted instance in the spirit of Figure 3.

    Figure 3 shows an MST whose edges carry contraction times 1..6 and
    a designated vertex ``v`` with ``ldr_time(v) = 2``; the dotted
    non-tree edges have time intervals w.r.t. ``v`` contained in
    ``[0, 2]``.  We build a graph achieving exactly that shape.
    """
    g = Graph(vertices=range(7))
    tree_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    non_tree = [(0, 2), (1, 3), (0, 6)]
    edges = tree_edges + non_tree
    for u, v in edges:
        g.add_edge(u, v, 1.0)
    # tree edges contract at times 1..6, the non-tree edges late
    keys = ContractionKeys(
        vertices=g.vertices(),
        u=[g.index_of(u) for u, _ in edges],
        v=[g.index_of(v) for _, v in edges],
        value=[1, 2, 3, 4, 5, 6, 17, 18, 19],
        key_space=7**3,
    )
    return g, keys, 2  # the designated vertex


def render_figure3() -> str:
    """Figure 3: time intervals of edges w.r.t. a designated vertex."""
    g, keys, v = figure3_instance()
    V, mst = keys.vertices, keys.mst
    mst_edges = [(V[a], V[b]) for a, b in zip(mst.u, mst.v)]
    decomp = low_depth_decomposition(V, mst_edges)
    lines = [
        "Figure 3 — contraction-time intervals with respect to a vertex",
        f"designated vertex: {v} (label {decomp.label[v]})",
        "tree edges with times: "
        + ", ".join(f"{u}-{w}@{k}" for (u, w), k in zip(mst_edges, mst.key)),
    ]
    level = decomp.label[v]
    table = build_level_structure(keyed_tree(decomp, keys))
    # v leads its own bag at its own level.
    slot = table.slot[level - 1, g.index_of(v)]
    lines.append(f"ldr_time({v}) = {table.ldr_time[slot]}")
    iv = edge_intervals([(g, table)])
    rows = np.flatnonzero(iv.segment == slot)
    rows = rows[np.lexsort((iv.edge[rows], iv.end[rows], iv.start[rows]))]
    for a, b, w in zip(
        iv.start[rows].tolist(), iv.end[rows].tolist(), iv.weight[rows].tolist()
    ):
        lines.append(f"  interval [{a}, {b}] weight {w:g}")
    return "\n".join(lines)


def render_all_figures() -> str:
    return "\n\n".join(
        [render_figure1(), render_figure2(), render_figure3()]
    )
