"""Doctest leg: the examples in the docs must actually run.

Every public module of :mod:`repro.service` and :mod:`repro.preprocess`
is swept with :func:`doctest.testmod`; docstring examples are part of
the documented contract (the satellite of the PR 5 docs overhaul), so a
drifting example fails tier-1 the same way a drifting assertion would.
The CI docs leg additionally runs ``pytest --doctest-modules`` over the
same trees.
"""

import doctest
import importlib

import pytest

MODULES = [
    "repro.obs",
    "repro.obs.loadgen",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.preprocess",
    "repro.preprocess.kernel",
    "repro.service",
    "repro.service.cache",
    "repro.service.deltas",
    "repro.service.executor",
    "repro.service.frontend",
    "repro.service.http",
    "repro.service.ops",
    "repro.service.oracle",
    "repro.service.service",
    "repro.service.store",
]

#: modules that must carry at least one runnable example — the
#: docstring-audit satellite's enforcement hook (purely wiring modules
#: like http.py may legitimately have none)
MUST_HAVE_EXAMPLES = {
    "repro.obs.loadgen",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.preprocess.kernel",
    "repro.service.cache",
    "repro.service.deltas",
    "repro.service.executor",
    "repro.service.frontend",
    "repro.service.ops",
    "repro.service.service",
    "repro.service.store",
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
