"""Shared fixtures for the benchmark harness.

Every benchmark renders its experiment's report table (the rows
EXPERIMENTS.md records) in addition to timing its kernel under
pytest-benchmark.  Reports are collected here and dumped in the
terminal summary (``pytest_terminal_summary``), which pytest never
captures — so ``pytest benchmarks/ --benchmark-only | tee ...`` keeps
the tables.

A benchmark writes its results JSON to the path in its env var, or
under the untracked ``.bench/`` directory when the var is unset, so a
local run never rewrites a committed ``BENCH_*.json``.
"""

import os

import pytest

_REPORTS: list[str] = []


@pytest.fixture(scope="session")
def report_sink():
    """Collects rendered experiment reports; printed at session end."""
    return _REPORTS


def pytest_sessionstart(session):
    os.makedirs(".bench", exist_ok=True)


def emit(report_sink, report) -> None:
    text = report.render()
    report_sink.append(text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "experiment reports (EXPERIMENTS.md rows)")
    for text in _REPORTS:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    _REPORTS.clear()
