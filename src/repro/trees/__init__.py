"""Section 3: rooting, binarized paths and the generalized low-depth
decomposition, whose views give the heavy paths and the meta tree."""

from .binarized import AlmostCompleteBinaryTree, BinarizedPath, binarize_path
from .low_depth import (
    LowDepthDecomposition,
    low_depth_decomposition,
    low_depth_decomposition_ampc,
)
from .rooted import RootedTree, Rooting, root_indices, root_tree, root_tree_ampc
from .validate import (
    boundary_edges,
    check_definition_1,
    decomposition_forest_sequence,
    is_valid_decomposition,
    level_components,
)

__all__ = [
    "AlmostCompleteBinaryTree",
    "BinarizedPath",
    "LowDepthDecomposition",
    "RootedTree",
    "Rooting",
    "binarize_path",
    "boundary_edges",
    "check_definition_1",
    "decomposition_forest_sequence",
    "is_valid_decomposition",
    "level_components",
    "low_depth_decomposition",
    "low_depth_decomposition_ampc",
    "root_indices",
    "root_tree",
    "root_tree_ampc",
]
