"""Minimum spanning forest.

Algorithm 3 (SmallestSingletonCut) starts by computing the MST of the
randomly-keyed graph.  Edge keys are unique, so the MST is unique — a
property Section 4 relies on ("since weights are unique, the MST is
unique as well").

Pipeline (and its accounting):

1. **distributed sample sort** of the edges by key — genuinely executed
   (:func:`~repro.ampc.primitives.sort.ampc_sort`, measured rounds);
2. **Kruskal consolidation** over the sorted stream with union–find —
   charged ``O(1/eps)`` rounds against the adaptive-connectivity result
   of Behnezhad et al. [4] — a substitution, not a simplification: the
   paper itself consumes MST as a black box built from its citations
   [2–5].

The output is exact, which is all the downstream algorithms need.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from ...graph.dsu import IndexDSU
from ..config import AMPCConfig
from ..ledger import RoundLedger
from .sort import ampc_sort


def ampc_minimum_spanning_forest(
    config: AMPCConfig,
    vertices: Sequence[Hashable],
    edges: Sequence[tuple[Hashable, Hashable, int]],
    *,
    ledger: RoundLedger | None = None,
) -> list[tuple[Hashable, Hashable, int]]:
    """Minimum spanning forest of ``(u, v, key)`` edges; keys must be unique.

    Returns the forest edges sorted by key (ascending).
    """
    keys = [k for (_, _, k) in edges]
    if len(set(keys)) != len(keys):
        raise ValueError("edge keys must be unique (the paper's w: E -> [n^3])")

    sorted_edges = ampc_sort(config, list(edges), key=lambda e: e[2], ledger=ledger)

    index = {v: i for i, v in enumerate(vertices)}
    dsu = IndexDSU(len(vertices))
    forest = [
        (u, v, k) for u, v, k in sorted_edges if dsu.union(index[u], index[v]) >= 0
    ]

    if ledger is not None:
        ledger.charge(
            config.rounds_per_primitive,
            "MST consolidation via adaptive connectivity (Behnezhad et al. [4])",
            local_peak=config.local_memory_words,
            total_peak=len(vertices) + len(edges),
        )
    return forest
