"""Experiment analysis: theory envelopes, runners, tables, figures."""

from . import figures, harness, metrics, sparsest, tables, theory
from .harness import ExperimentReport
from .metrics import PartitionSummary, partition_summary
from .sparsest import (
    SparsestCutResult,
    approx_sparsest_cut,
    cut_sparsity,
    exact_sparsest_cut,
    sparsest_kernel,
)

__all__ = [
    "ExperimentReport",
    "PartitionSummary",
    "SparsestCutResult",
    "approx_sparsest_cut",
    "cut_sparsity",
    "exact_sparsest_cut",
    "figures",
    "harness",
    "metrics",
    "partition_summary",
    "sparsest",
    "sparsest_kernel",
    "tables",
    "theory",
]
