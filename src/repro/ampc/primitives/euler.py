"""Forest rooting, orientation, depths and subtree sizes — paper Lemma 4.

Lemma 4 (Behnezhad et al. [3], Theorem 7): a forest on ``n`` vertices
can be rooted and its edges oriented in ``O(1/eps)`` AMPC rounds w.h.p.
with ``O(n^eps)`` local memory.  The same toolbox yields depths,
subtree sizes and preorder numbers, all of which Section 3 of the paper
consumes (heavy edges need subtree sizes; labels need depths in the
expanded meta-tree; binarized paths need preorder).

Implementation = Euler tour + adaptive list ranking:

* every undirected edge ``{u,v}`` becomes two arcs; the tour successor
  of arc ``(u,v)`` is ``(v, next neighbour of v after u)`` in cyclic
  adjacency order — one adaptive read per arc computes it;
* the tour cycle is cut at each root's last incoming arc, making the
  tour an open list that :func:`ampc_list_rank` ranks in ``O(1/eps)``
  rounds;
* parent(v) = source of the *first* arc entering ``v`` (max rank);
* depth = prefix sum of +1/−1 arc signs at the entering arc;
* subtree size falls out of enter/exit positions:
  ``size = (pos_exit − pos_enter + 1) // 2``.

The adjacency representation is seeded as flat keys ``("adj_at", v, i)``
so no machine ever holds a full (possibly huge) adjacency list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from ..config import AMPCConfig
from ..ledger import RoundLedger
from ..machine import MachineContext
from ..runtime import AMPCRuntime
from .listrank import _stable_key, ampc_list_rank
from .prefix import ampc_prefix_sums


@dataclass
class RootedForest:
    """Output of :func:`ampc_root_forest`.

    Attributes
    ----------
    parent:
        ``parent[v]`` is ``None`` for roots.
    depth:
        Roots have depth 1 (the paper's convention in Section 3.4).
    subtree_size:
        Number of vertices in the subtree rooted at ``v`` (incl. ``v``).
    preorder:
        0-based preorder (DFS first-visit) index within each tree,
        following the same cyclic adjacency order as the Euler tour.
    root_of:
        Component root of each vertex.
    """

    parent: dict[Hashable, Hashable | None]
    depth: dict[Hashable, int]
    subtree_size: dict[Hashable, int]
    preorder: dict[Hashable, int]
    root_of: dict[Hashable, Hashable]


def ampc_root_forest(
    config: AMPCConfig,
    vertices: Sequence[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    *,
    roots: dict[Hashable, Hashable] | None = None,
    ledger: RoundLedger | None = None,
    seed: int = 0,
) -> RootedForest:
    """Root every tree of the forest and derive the Lemma-4 quantities.

    Parameters
    ----------
    vertices, edges:
        The forest.  Edges are undirected pairs; multi-edges/loops are
        invalid input.
    roots:
        Optional component -> root hints; by default the minimum vertex
        (by sort order of ``repr``) of each component is its root.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    edge_list = [tuple(e) for e in edges]
    adjacency: dict[Hashable, list[Hashable]] = {v: [] for v in vertices}
    for u, v in edge_list:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for v in adjacency:
        adjacency[v].sort(key=_stable_key)

    # Host-side component discovery is *only* used to pick canonical
    # roots (control-plane); all tour data flows through the DHT.
    component = _components(adjacency)
    chosen_roots: dict[Hashable, Hashable] = {}
    for v, comp in component.items():
        if roots and comp in roots:
            chosen_roots[comp] = roots[comp]
        else:
            cur = chosen_roots.get(comp)
            if cur is None or _stable_key(v) < _stable_key(cur):
                chosen_roots[comp] = v
    root_of = {v: chosen_roots[component[v]] for v in vertices}

    isolated = [v for v in vertices if not adjacency[v]]
    if not edge_list:
        return RootedForest(
            parent={v: None for v in vertices},
            depth={v: 1 for v in vertices},
            subtree_size={v: 1 for v in vertices},
            preorder={v: 0 for v in vertices},
            root_of=root_of,
        )

    runtime = AMPCRuntime(config, ledger=ledger)
    seed_items: list[tuple] = []
    for v, nbrs in adjacency.items():
        seed_items.append((("deg", v), len(nbrs)))
        for i, u in enumerate(nbrs):
            seed_items.append((("adj_at", v, i), u))
            seed_items.append((("rank_in_adj", u, v), i))
    for r in chosen_roots.values():
        seed_items.append((("isroot", r), True))
    runtime.seed(seed_items)

    arcs = [(u, v) for (u, v) in edge_list] + [(v, u) for (u, v) in edge_list]

    # ---------------------------------------------------------- round 1
    # Each arc computes its tour successor; the arc closing the cycle at
    # a root gets successor None (the "cut").
    def arc_successor(ctx: MachineContext) -> None:
        u, v = ctx.payload
        deg_v = ctx.read(("deg", v))
        pos = ctx.read(("rank_in_adj", u, v))
        if ctx.contains(("isroot", v)) and pos == deg_v - 1:
            ctx.write(("tour_succ", u, v), None)
        else:
            w = ctx.read(("adj_at", v, (pos + 1) % deg_v))
            ctx.write(("tour_succ", u, v), (v, w))

    runtime.round(
        [(arc_successor, arc) for arc in arcs],
        "euler tour: arc successors (Lemma 4)",
        carry_forward=True,
    )

    successor = {
        ("arc", a, b): _tag(runtime.table.get(("tour_succ", a, b)))
        for (a, b) in arcs
    }
    rank_to_tail = ampc_list_rank(config, successor, ledger=ledger, seed=seed)

    # Tour positions from the head: pos = (tour_len - 1) - rank_to_tail,
    # where tour_len is per component.
    comp_size: dict[Hashable, int] = {}
    for v in vertices:
        comp_size[component[v]] = comp_size.get(component[v], 0) + 1
    pos: dict[tuple, int] = {}
    for u, v in arcs:
        tree_arcs = 2 * (comp_size[component[u]] - 1)
        pos[(u, v)] = (tree_arcs - 1) - rank_to_tail[("arc", u, v)]

    # ---------------------------------------------------------- round 2
    # Parent discovery: every arc proposes itself for its head vertex;
    # the min-position proposal wins (first visit).
    def propose_parent(ctx: MachineContext) -> None:
        u, v = ctx.payload[0]
        p = ctx.payload[1]
        ctx.write(("parentc", v), (p, u))

    runtime.round(
        [(propose_parent, ((u, v), pos[(u, v)])) for (u, v) in arcs],
        "euler tour: parent election",
        combiner=min,
        carry_forward=True,
    )
    parent: dict[Hashable, Hashable | None] = {}
    for v in vertices:
        if v == root_of[v]:
            parent[v] = None
        else:
            parent[v] = runtime.table.get(("parentc", v))[1]

    # ---------------------------------------------------- rounds 3..O(1)
    # Depth: prefix-sum of arc signs in tour order, evaluated at each
    # vertex's entering arc.  The sign of arc (u,v) is +1 when it goes
    # parent->child (v's parent is u), else -1.
    order: dict[Hashable, list[tuple]] = {}
    for u, v in arcs:
        order.setdefault(component[u], []).append((u, v))
    depth: dict[Hashable, int] = {}
    preorder: dict[Hashable, int] = {}
    subtree: dict[Hashable, int] = {}
    for comp, comp_arcs in order.items():
        comp_arcs.sort(key=lambda a: pos[a])
        signs = [1 if parent[b] == a else -1 for (a, b) in comp_arcs]
        sums = ampc_prefix_sums(config, signs, ledger=ledger)
        down_counts = ampc_prefix_sums(
            config, [1 if s == 1 else 0 for s in signs], ledger=ledger
        )
        r = chosen_roots[comp]
        depth[r] = 1
        preorder[r] = 0
        for idx, (a, b) in enumerate(comp_arcs):
            if parent[b] == a:  # entering b for the first time
                depth[b] = 1 + sums[idx]
                preorder[b] = down_counts[idx]
        enter = {b: pos[(a, b)] for (a, b) in comp_arcs if parent[b] == a}
        exit_ = {a: pos[(a, b)] for (a, b) in comp_arcs if parent[a] == b}
        for v in enter:
            subtree[v] = (exit_[v] - enter[v] + 1) // 2
        subtree[r] = comp_size[comp]

    for v in isolated:
        depth[v] = 1
        preorder[v] = 0
        subtree[v] = 1

    return RootedForest(
        parent=parent,
        depth=depth,
        subtree_size=subtree,
        preorder=preorder,
        root_of=root_of,
    )


def _tag(arc):
    return None if arc is None else ("arc", arc[0], arc[1])


def _components(adjacency: dict[Hashable, list[Hashable]]) -> dict[Hashable, int]:
    """Iterative DFS component labelling (control-plane only)."""
    comp: dict[Hashable, int] = {}
    next_id = 0
    for start in adjacency:
        if start in comp:
            continue
        stack = [start]
        comp[start] = next_id
        while stack:
            v = stack.pop()
            for u in adjacency[v]:
                if u not in comp:
                    comp[u] = next_id
                    stack.append(u)
        next_id += 1
    return comp
