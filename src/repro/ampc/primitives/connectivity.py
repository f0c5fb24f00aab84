"""Connected components.

Two entry points with different fidelity (measured vs charged rounds,
see :mod:`repro.ampc.ledger`):

* :func:`ampc_forest_components` — **genuinely executed**: components
  of a forest via the Euler-tour rooting machinery (component id =
  root), measured rounds;
* :func:`ampc_graph_components` — general graphs.  The paper consumes
  general connectivity as a black box from Behnezhad et al. [4]
  ("Parallel graph algorithms in constant adaptive rounds"), which is
  its own paper-sized system.  We compute components with union–find
  at host speed and **charge** the ``O(1/eps)`` rounds / ``O(n^eps)``
  local / ``O(m)`` total budget that [4] proves.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

from ..config import AMPCConfig
from ..ledger import RoundLedger
from .euler import ampc_root_forest
from .listrank import _stable_key


def ampc_forest_components(
    config: AMPCConfig,
    vertices: Sequence[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    *,
    ledger: RoundLedger | None = None,
) -> dict[Hashable, Hashable]:
    """Component representative (the root) for each vertex of a forest."""
    rooted = ampc_root_forest(config, vertices, edges, ledger=ledger)
    return rooted.root_of


def ampc_graph_components(
    config: AMPCConfig,
    vertices: Sequence[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    *,
    ledger: RoundLedger | None = None,
) -> dict[Hashable, Hashable]:
    """Component representative for each vertex of an arbitrary graph.

    Charged per Behnezhad et al. [4]: ``O(1/eps)`` rounds, ``O(n^eps)``
    local memory, ``O(n + m)`` total space.

    When the vertices are plain ints, the components are computed by
    vectorized array hooking + pointer doubling instead of the per-edge
    Python union–find of the reference, :func:`_graph_components_object`
    — same charged budget, same representatives (the union rule makes
    every component's representative its ``_stable_key`` minimum, which
    the vectorized path computes directly).
    """
    if all(type(v) is int for v in vertices):
        return _graph_components_vectorized(config, vertices, edges, ledger=ledger)
    return _graph_components_object(config, vertices, edges, ledger=ledger)


def _graph_components_object(
    config: AMPCConfig,
    vertices: Sequence[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    *,
    ledger: RoundLedger | None = None,
) -> dict[Hashable, Hashable]:
    """The reference: per-edge union–find under the same charge."""
    parent: dict[Hashable, Hashable] = {v: v for v in vertices}

    def find(v: Hashable) -> Hashable:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:  # path compression
            parent[v], v = root, parent[v]
        return root

    m = 0
    for u, v in edges:
        m += 1
        ru, rv = find(u), find(v)
        if ru != rv:
            if _stable_key(ru) < _stable_key(rv):
                parent[rv] = ru
            else:
                parent[ru] = rv

    if ledger is not None:
        ledger.charge(
            config.rounds_per_primitive,
            "Behnezhad et al. [4]: graph connectivity in O(1/eps) adaptive rounds",
            local_peak=config.local_memory_words,
            total_peak=len(parent) + m,
        )
    return {v: find(v) for v in vertices}


def _graph_components_vectorized(
    config: AMPCConfig,
    vertices: Sequence[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    *,
    ledger: RoundLedger | None = None,
) -> dict[Hashable, Hashable]:
    """Array hooking + pointer doubling over dense vertex ids.

    Bit-identical to the union–find above: that union rule (smaller
    ``_stable_key`` becomes the root) makes each component's final
    representative exactly the component's ``_stable_key`` minimum, so
    this path ranks vertices by stable key once, hooks every edge onto
    the smaller-ranked root, and compresses by pointer doubling until
    fixpoint.  Unknown edge endpoints raise the same ``KeyError`` the
    dict lookup would.
    """
    id_map: dict[Hashable, int] = {}
    order: list[Hashable] = []
    for v in vertices:
        if v not in id_map:
            id_map[v] = len(order)
            order.append(v)
    n = len(order)

    m = 0
    eu_list: list[int] = []
    ev_list: list[int] = []
    for u, v in edges:
        m += 1
        eu_list.append(id_map[u])
        ev_list.append(id_map[v])

    # Rank vertices by _stable_key (all ints here, so the type prefix is
    # constant and the order is the lexicographic order of str(v)).
    rank = np.empty(n, dtype=np.int64)
    by_key = np.argsort(np.array([str(v) for v in order]))
    rank[by_key] = np.arange(n)

    parent = np.arange(n, dtype=np.int64)  # over rank space
    if m:
        eu = rank[np.array(eu_list, dtype=np.int64)]
        ev = rank[np.array(ev_list, dtype=np.int64)]
        while True:
            # full path compression by pointer doubling
            while True:
                gp = parent[parent]
                if np.array_equal(gp, parent):
                    break
                parent = gp
            ru, rv = parent[eu], parent[ev]
            lo = np.minimum(ru, rv)
            hi = np.maximum(ru, rv)
            live = lo != hi
            if not live.any():
                break
            # hook: each still-split edge drags the larger root onto the
            # smaller; minimum.at resolves races toward the component min
            np.minimum.at(parent, hi[live], lo[live])
    roots = parent[rank]  # vertex id -> representative's rank
    rep_of = [order[by_key[r]] for r in roots.tolist()]

    if ledger is not None:
        ledger.charge(
            config.rounds_per_primitive,
            "Behnezhad et al. [4]: graph connectivity in O(1/eps) adaptive rounds",
            local_peak=config.local_memory_words,
            total_peak=n + m,
        )
    return {v: rep_of[id_map[v]] for v in vertices}
