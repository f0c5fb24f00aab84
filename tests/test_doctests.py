"""Doctest leg: the examples in the docs must actually run.

Every public module of :mod:`repro.service`, :mod:`repro.preprocess`
and :mod:`repro.obs`, plus the booster :mod:`repro.core.boost`, the
contraction keys and contraction (:mod:`repro.core.keys`,
:mod:`repro.core.contraction`), the quotient-block helpers
:mod:`repro.graph.cuts`, the union–finds :mod:`repro.graph.dsu`,
the Gomory–Hu trees :mod:`repro.flow.gomory_hu` and the low-depth
labels (:mod:`repro.trees.binarized`, :mod:`repro.trees.low_depth`) is
swept with
:func:`doctest.testmod`; docstring examples are part of the documented
contract (the satellite of the PR 5 docs overhaul), so a drifting
example fails tier-1 the same way a drifting assertion would.
The CI docs leg additionally runs ``pytest --doctest-modules`` over the
same trees.
"""

import doctest
import importlib

import pytest

MODULES = [
    "repro.core.boost",
    "repro.core.contraction",
    "repro.core.keys",
    "repro.flow.gomory_hu",
    "repro.graph.cuts",
    "repro.graph.dsu",
    "repro.obs",
    "repro.obs.loadgen",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.preprocess",
    "repro.preprocess.dynamic",
    "repro.preprocess.kernel",
    "repro.service",
    "repro.service.cache",
    "repro.service.deltas",
    "repro.service.executor",
    "repro.service.frontend",
    "repro.service.http",
    "repro.service.ops",
    "repro.service.oracle",
    "repro.service.reply",
    "repro.service.service",
    "repro.service.store",
    "repro.trees.binarized",
    "repro.trees.low_depth",
]

#: modules that must carry at least one runnable example — the
#: docstring-audit satellite's enforcement hook (purely wiring modules
#: like http.py may legitimately have none)
MUST_HAVE_EXAMPLES = {
    "repro.core.boost",
    "repro.core.contraction",
    "repro.core.keys",
    "repro.flow.gomory_hu",
    "repro.graph.cuts",
    "repro.graph.dsu",
    "repro.obs.loadgen",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.preprocess.dynamic",
    "repro.preprocess.kernel",
    "repro.service.cache",
    "repro.service.deltas",
    "repro.service.executor",
    "repro.service.frontend",
    "repro.service.ops",
    "repro.service.oracle",
    "repro.service.reply",
    "repro.service.service",
    "repro.service.store",
    "repro.trees.binarized",
    "repro.trees.low_depth",
}


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{name}: {result.failed} doctest failures"
    if name in MUST_HAVE_EXAMPLES:
        assert result.attempted > 0, (
            f"{name} is expected to carry runnable docstring examples"
        )
