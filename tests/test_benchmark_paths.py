"""Benchmarks keep their default results out of tracked files.

Every ``benchmarks/bench_*.py`` reads its results path as
``os.environ.get(VAR, default)``.  CI passes explicit paths; the
default must lie under the untracked ``.bench/`` directory, so running
a benchmark from a checkout never rewrites a committed
``BENCH_*.json``.
"""

import ast
from pathlib import Path

import pytest

BENCHMARKS = sorted(
    (Path(__file__).resolve().parents[1] / "benchmarks").glob("bench_*.py")
)


def _path_defaults(source: str) -> dict:
    """``{name: default}`` of each module-level ``*_PATH`` assignment
    of the form ``os.environ.get(VAR, default)``."""
    out = {}
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)):
            continue
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        call = node.value
        if (names and names[0].endswith("_PATH")
                and ast.unparse(call.func) == "os.environ.get"):
            out[names[0]] = ast.literal_eval(call.args[1])
    return out


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.name)
def test_results_default_lies_under_dot_bench(path):
    source = path.read_text()
    defaults = _path_defaults(source)
    if "_RESULTS_PATH" in source:
        assert "_RESULTS_PATH" in defaults
    for name, default in defaults.items():
        assert default.startswith(".bench/"), (path.name, name, default)


def test_dot_bench_is_ignored():
    root = Path(__file__).resolve().parents[1]
    assert ".bench/" in (root / ".gitignore").read_text().splitlines()
