"""Exact kernelization in front of every cut solver.

The AMPC algorithms pay per-edge cost in every round, so shrinking the
input *before* Algorithm 1 runs is the highest-leverage speedup in the
stack — the algorithm-engineering move of Henzinger–Noe–Schulz–Strash's
"Practical Minimum Cut Algorithms" (VieCut) and Noe's thesis, where
exact reductions routinely shrink real graphs by 10–100x before any
flow or contraction work happens.

:func:`kernelize` applies a pipeline of **cut-preserving reductions**
and returns a :class:`CutKernel` that remembers how to lift any cut of
the reduced graph back to a cut of the original (side expansion
through the contraction map, weight re-evaluated on the original, so
reported weights are exact by construction).  See
:mod:`repro.preprocess.kernel` for the reduction catalogue and the
safety argument for each rule; :func:`solve_min_cut` wraps any
``Graph -> Cut`` solver behind the pipeline, and
:func:`kernelize_for_kcut` is the (smaller) k-cut-safe variant.

The serving layer caches kernels per ``(fingerprint, level)`` and,
after in-place graph mutations, calls :func:`refresh_kernel`
(:mod:`repro.preprocess.dynamic`) to re-run only the reductions whose
certificates the delta invalidated — each :class:`ReductionStep` now
records the local certificate it relied on — falling back to a lazy
rekernelization otherwise (see ``docs/ARCHITECTURE.md`` for the
request lifecycle).
"""

from .dynamic import refresh_kernel
from .kernel import (
    LEVELS,
    CutKernel,
    KCutKernel,
    ReductionStep,
    kernelize,
    kernelize_for_kcut,
    solve_min_cut,
    validate_level,
)

__all__ = [
    "LEVELS",
    "CutKernel",
    "KCutKernel",
    "ReductionStep",
    "kernelize",
    "kernelize_for_kcut",
    "refresh_kernel",
    "solve_min_cut",
    "validate_level",
]
