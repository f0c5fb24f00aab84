"""Section 3: rooting, heavy-light, meta tree, binarized paths and the
generalized low-depth decomposition."""

from .binarized import AlmostCompleteBinaryTree, BinarizedPath, binarize_path
from .heavy_light import HeavyLight, heavy_light_decomposition
from .low_depth import (
    LowDepthDecomposition,
    low_depth_decomposition,
    low_depth_decomposition_ampc,
)
from .meta_tree import MetaTree, build_meta_tree
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
    "HeavyLight",
    "LowDepthDecomposition",
    "MetaTree",
    "RootedTree",
    "Rooting",
    "binarize_path",
    "boundary_edges",
    "build_meta_tree",
    "check_definition_1",
    "decomposition_forest_sequence",
    "heavy_light_decomposition",
    "is_valid_decomposition",
    "level_components",
    "low_depth_decomposition",
    "low_depth_decomposition_ampc",
    "root_indices",
    "root_tree",
    "root_tree_ampc",
]
