"""Max-flow substrate: Dinic, push–relabel, and Gomory–Hu trees."""

from .dinic import DinicSolver, FlowResult, min_st_cut
from .gomory_hu import (
    GomoryHuEdge,
    GomoryHuTree,
    cut_tree_tables,
    gomory_hu_tree,
    gomory_hu_tree_contracted,
    repair_gomory_hu,
)
from .push_relabel import PushRelabelSolver, min_st_cut_push_relabel

__all__ = [
    "DinicSolver",
    "FlowResult",
    "GomoryHuEdge",
    "GomoryHuTree",
    "PushRelabelSolver",
    "cut_tree_tables",
    "gomory_hu_tree",
    "gomory_hu_tree_contracted",
    "min_st_cut",
    "min_st_cut_push_relabel",
    "repair_gomory_hu",
]
