"""Shared fixtures for the tier-1 suite: the JSON artifact sinks, and
:func:`serving`, which runs a test's HTTP server."""

from __future__ import annotations

import contextlib
import json
import os
import threading

import pytest


@contextlib.contextmanager
def serving(srv):
    """Run ``srv.serve_forever`` on a daemon thread for the ``with``
    block, then ``shutdown()`` and ``server_close()`` it.  The loop
    polls every 0.05 s rather than the default 0.5 s, which
    ``shutdown()`` would otherwise wait out at every teardown."""
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()


@pytest.fixture(scope="session")
def kernel_shrinkage():
    """Sink for kernelization records, dumped as a JSON artifact.

    ``tests/test_preprocess.py`` appends one record per (instance,
    level, solver) differential comparison.  When ``KERNEL_SHRINKAGE``
    names a path, the records are written there at session end — CI
    uploads that file as the kernel-shrinkage artifact.
    """
    records: list[dict] = []
    yield records
    path = os.environ.get("KERNEL_SHRINKAGE")
    if path and records:
        shrinks = [r["vertex_shrink"] for r in records]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "comparisons": records,
                    "all_identical": all(r["identical"] for r in records),
                    "max_vertex_shrink": max(shrinks),
                    "mean_vertex_shrink": sum(shrinks) / len(shrinks),
                },
                fh,
                indent=2,
                sort_keys=True,
            )


@pytest.fixture(scope="session")
def dynamic_stream_summary():
    """Sink for streaming differential records, dumped as a JSON artifact.

    ``tests/test_dynamic_stream.py`` appends one record per scripted or
    fuzzed mutation/query interleaving, carrying the repair-vs-rebuild
    counters the warm path reported.  When ``DYNAMIC_STREAM_SUMMARY``
    names a path, the records are written there at session end — CI
    uploads that file as the dynamic-stream artifact.
    """
    records: list[dict] = []
    yield records
    path = os.environ.get("DYNAMIC_STREAM_SUMMARY")
    if path and records:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "streams": records,
                    "all_identical": all(r["identical"] for r in records),
                    "total_steps": sum(r["steps"] for r in records),
                    "total_repairs": sum(r["repairs"] for r in records),
                    "total_repair_fallbacks": sum(
                        r["repair_fallbacks"] for r in records
                    ),
                },
                fh,
                indent=2,
                sort_keys=True,
            )


@pytest.fixture(scope="session")
def scenario_summary():
    """Sink for scenario-suite records, dumped as a JSON artifact.

    ``tests/test_metamorphic_scenarios.py`` appends one record per
    gomoryhu/sparsestcut property check (matrix size, approximation
    ratio).  When ``SCENARIO_SUMMARY`` names a path,
    the records are written there at session end — CI uploads that
    file as the scenario-leg artifact.
    """
    records: list[dict] = []
    yield records
    path = os.environ.get("SCENARIO_SUMMARY")
    if path and records:
        ratios = [r["ratio"] for r in records if "ratio" in r]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "checks": records,
                    "all_ok": all(r["ok"] for r in records),
                    "max_sparsest_ratio": max(ratios) if ratios else None,
                },
                fh,
                indent=2,
                sort_keys=True,
            )


@pytest.fixture(scope="session")
def equivalence_summary():
    """Sink for library-vs-reference records, dumped as a JSON artifact.

    ``tests/test_backend_equivalence.py`` appends one record per
    workload comparison.  When ``EQUIVALENCE_SUMMARY`` names
    a path, the records are written there at session end — CI uploads
    that file as the equivalence-harness artifact.
    """
    records: list[dict] = []
    yield records
    path = os.environ.get("EQUIVALENCE_SUMMARY")
    if path and records:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "comparisons": records,
                    "all_identical": all(r["identical"] for r in records),
                },
                fh,
                indent=2,
                sort_keys=True,
            )
