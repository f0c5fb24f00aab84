"""Run the AMPC primitives on their object reference (not collected).

Each columnar-capable primitive keeps its object path as a private
reference function (``sort._sort_object``, ``prefix._prefix_object``,
``listrank._list_rank_object``, ``connectivity._graph_components_object``)
and takes the columnar path whenever its input fits the contract.
Differential tests call the reference functions directly; for code that
reaches the primitives through other modules (Euler-tour rooting, MST,
the mincut pipeline), :func:`object_reference` patches the contract
checks so every primitive call inside the block runs the object path.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.ampc.primitives import connectivity, listrank, prefix, sort


@contextmanager
def object_reference():
    """Force every primitive onto its object reference inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sort, "_sort_columnar_ok", lambda values: False)
        mp.setattr(prefix, "_columnar_ok", lambda values: False)
        mp.setattr(
            listrank, "_listrank_columnar_ok", lambda successor, nodes: False
        )
        mp.setattr(
            connectivity,
            "_graph_components_vectorized",
            connectivity._graph_components_object,
        )
        yield
