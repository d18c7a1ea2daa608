"""Plain-text rendering of experiment results.

``python -m repro.bench`` prints every table; wall-clock numbers and
their trajectory are ``perf``'s (``perf/history.jsonl``).
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["render_table", "heading"]


def heading(title: str) -> str:
    bar = "=" * len(title)
    return f"\n{title}\n{bar}"


def render_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    """Fixed-width table over dict rows; missing cells show as '-'."""
    if not rows:
        return "(no rows)"
    cells = [[_fmt(row.get(col, "-")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    sep = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(line[i].rjust(widths[i]) for i in range(len(columns)))
        for line in cells
    )
    return f"{header}\n{sep}\n{body}"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)
