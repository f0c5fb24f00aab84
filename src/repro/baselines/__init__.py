"""Baselines: exact cuts, Karger variants, MPC cost model, Saran–Vazirani.

Every approximate result in :mod:`repro.core` is differentially tested
against something exact here; see ``docs/ARCHITECTURE.md`` for the
subsystem map."""

from .exact_kcut import exact_min_kcut, exact_min_kcut_weight
from .gn_mpc import (
    gn_mpc_kcut_rounds,
    gn_mpc_min_cut,
    gn_mpc_rounds,
    mpc_level_rounds,
)
from .karger import contraction_preserves_cut, karger_best_of, karger_single_run
from .matula import MatulaResult, matula_min_cut, matula_min_cut_weight
from .karger_stein import karger_stein_boosted, karger_stein_min_cut
from .saran_vazirani import sv_gomory_hu_kcut, sv_split_kcut
from .stoer_wagner import exact_min_cut_weight, stoer_wagner_min_cut

__all__ = [
    "MatulaResult",
    "contraction_preserves_cut",
    "exact_min_cut_weight",
    "exact_min_kcut",
    "exact_min_kcut_weight",
    "gn_mpc_kcut_rounds",
    "gn_mpc_min_cut",
    "gn_mpc_rounds",
    "karger_best_of",
    "karger_single_run",
    "karger_stein_boosted",
    "karger_stein_min_cut",
    "matula_min_cut",
    "matula_min_cut_weight",
    "mpc_level_rounds",
    "stoer_wagner_min_cut",
    "sv_gomory_hu_kcut",
    "sv_split_kcut",
]
