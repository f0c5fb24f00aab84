"""Fixed-width table rendering for benchmark reports.

The benchmark harness prints the rows each experiment reports (the
paper has no tables of its own — these are theorem-validation
tables, one per experiment of :mod:`repro.analysis.harness`), and
EXPERIMENTS.md embeds the output
verbatim, so the renderer is deliberately plain ASCII.
"""

from __future__ import annotations

from typing import Any, Sequence


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    float_format: str = "{:.3f}",
) -> str:
    """Render a titled fixed-width table."""
    if any(len(row) != len(columns) for row in rows):
        raise ValueError("row arity does not match columns")

    def fmt(x: Any) -> str:
        if isinstance(x, bool):
            return "yes" if x else "no"
        if isinstance(x, float):
            return float_format.format(x)
        return str(x)

    cells = [[fmt(x) for x in row] for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * max(len(title), len(sep))]
    lines.append(" | ".join(col.ljust(w) for col, w in zip(columns, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_kv(title: str, pairs: Sequence[tuple[str, Any]]) -> str:
    """Render a key/value block (experiment metadata)."""
    width = max((len(k) for k, _ in pairs), default=0)
    lines = [title, "-" * max(len(title), 8)]
    for k, v in pairs:
        lines.append(f"{k.ljust(width)} : {v}")
    return "\n".join(lines)
