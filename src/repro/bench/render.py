"""Plain-text rendering of experiment results.

The committed record of a paper bench is its rendered table under
``benchmarks/results/`` (:func:`report`); wall-clock numbers and their
trajectory are ``perf``'s (``perf/history.jsonl``).
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, Sequence

__all__ = [
    "render_table",
    "render_series",
    "heading",
    "report",
    "ascii_chart",
]


def report(name: str, text: str) -> str:
    """Print *text* and persist it under ``benchmarks/results/<name>.txt``.

    pytest captures stdout, so benches also write their rendered tables to
    disk (directory overridable via ``REPRO_REPORT_DIR``); the file is
    overwritten per run.  Returns *text* for chaining.
    """
    print(text)
    directory = os.environ.get("REPRO_REPORT_DIR", "benchmarks/results")
    try:
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, f"{name}.txt"), "w") as handle:
            handle.write(text + "\n")
    except OSError:
        pass  # read-only checkout: printing alone still serves -s runs
    return text


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


def render_series(name: str, points: Iterable[tuple[object, object]]) -> str:
    """A one-line series: ``name: x=y  x=y  ...``"""
    body = "  ".join(f"{x}={_fmt(y)}" for x, y in points)
    return f"{name}: {body}"


def ascii_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    width: int = 60,
    height: int = 16,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """A rough character plot of one or more ``name -> [(x, y)]`` series.

    Good enough to eyeball the shape of Figures 9/10 in a terminal or a
    text log; each series is drawn with its own marker character.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    markers = "ox+*#@"
    for index, (name, pts) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in pts:
            col = round((x - x_min) / x_span * (width - 1))
            row = height - 1 - round((y - y_min) / y_span * (height - 1))
            grid[row][col] = marker
    lines = [f"{y_label}  ({y_min:g} .. {y_max:g})"] if y_label else []
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f" {x_label}  ({x_min:g} .. {x_max:g})")
    legend = "   ".join(
        f"{markers[i % len(markers)]} = {name}" for i, name in enumerate(series)
    )
    lines.append(f" {legend}")
    return "\n".join(lines)


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
