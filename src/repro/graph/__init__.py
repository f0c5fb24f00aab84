"""Graph substrate: columnar weighted graphs, cuts, union-find,
serialization.

:class:`Graph` stores its edge set in numpy columns with a cached CSR
adjacency view (see the module docstring of :mod:`repro.graph.graph`
for the representation and its invalidation discipline); the structure
operations every solver bottoms out in — quotient, induced subgraph,
components, cut evaluation — are vectorized over those columns, as are
the in-place mutators behind the serving layer's ``/mutate`` path
(``set_edge_weight``, ``remove_edges``).  This package is the bottom
layer of the subsystem map in ``docs/ARCHITECTURE.md``."""

from .cuts import (
    Cut,
    KCut,
    compose_blocks,
    kcut_weight,
    lift_cut,
    min_singleton_cut,
    singleton_cut_weight,
)
from .dispatch import load_any, save_any
from .dsu import DSU, IndexDSU
from .graph import Graph
from .formats import (
    load_dimacs,
    load_metis,
    read_dimacs,
    read_metis,
    save_dimacs,
    save_metis,
    write_dimacs,
    write_metis,
)
from .io import load_graph, read_edgelist, save_graph, write_edgelist
from .sparsify import (
    NIScan,
    ni_certificate,
    ni_edge_starts,
    ni_forest_partition,
    sparsify_preserving_min_cut,
)

__all__ = [
    "Cut",
    "NIScan",
    "DSU",
    "Graph",
    "IndexDSU",
    "KCut",
    "compose_blocks",
    "kcut_weight",
    "lift_cut",
    "load_any",
    "load_dimacs",
    "load_graph",
    "load_metis",
    "save_any",
    "min_singleton_cut",
    "ni_certificate",
    "ni_edge_starts",
    "ni_forest_partition",
    "read_dimacs",
    "read_edgelist",
    "read_metis",
    "save_dimacs",
    "save_graph",
    "save_metis",
    "singleton_cut_weight",
    "sparsify_preserving_min_cut",
    "write_dimacs",
    "write_edgelist",
    "write_metis",
]
