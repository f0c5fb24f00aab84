"""The paper's contribution: Algorithms 1 (AMPC-MinCut), 3
(SmallestSingletonCut) and 4 (APX-SPLIT), with their substrates; every
boosted solve runs through :func:`boost_min_cut` or :func:`boost_kcut`."""

from .bags import ReplayResult, boundary_profile, replay_min_singleton
from .boost import BOOST_SEED_STRIDE, default_boost_trials
from .contraction import bag_at, bag_boundary_weight, contract_to_size, mst_of_keys
from .intervals import IntervalColumns, edge_intervals
from .kcut import KCutResult, apx_split_kcut, boost_kcut
from .keys import ContractionKeys, draw_contraction_keys, draw_uniform_keys
from .ldr import KeyedTree, LevelTable, build_level_structure, keyed_tree
from .mincut import (
    MinCutResult,
    ampc_min_cut,
    ampc_min_cut_boosted,
    boost_min_cut,
)
from .schedule import RecursionSchedule, ScheduleLevel, schedule_for
from .singleton import (
    SingletonCopy,
    SingletonCutResult,
    smallest_singleton_cut,
    smallest_singleton_cut_value,
    verify_against_replay,
)
from .sweep import min_interval_overlap, min_interval_overlap_ampc

__all__ = [
    "BOOST_SEED_STRIDE",
    "ContractionKeys",
    "IntervalColumns",
    "KCutResult",
    "KeyedTree",
    "LevelTable",
    "MinCutResult",
    "RecursionSchedule",
    "ReplayResult",
    "ScheduleLevel",
    "SingletonCopy",
    "SingletonCutResult",
    "ampc_min_cut",
    "ampc_min_cut_boosted",
    "apx_split_kcut",
    "bag_at",
    "bag_boundary_weight",
    "boost_kcut",
    "boost_min_cut",
    "boundary_profile",
    "build_level_structure",
    "contract_to_size",
    "default_boost_trials",
    "draw_contraction_keys",
    "draw_uniform_keys",
    "edge_intervals",
    "keyed_tree",
    "min_interval_overlap",
    "min_interval_overlap_ampc",
    "mst_of_keys",
    "replay_min_singleton",
    "schedule_for",
    "smallest_singleton_cut",
    "smallest_singleton_cut_value",
    "verify_against_replay",
]
