"""``python -m perf compare A.json B.json`` — apply the bounds.

Each file holds one run row per line (the shape ``run --json`` writes and
``history.jsonl`` keeps); several rows per side are several runs of that
side.  For every workload × end-to-end metric the medians of the two
sides are compared against the metric's bound:

* **worse** — B's median is worse than A's by more than the bound (or B
  lacks a metric A has): a regression, exit code 1;
* **better** — improved by more than the bound;
* **within bound** — neither;
* **unresolved** — a side's own run-to-run spread (quartile distance as
  a share of the median) is wider than the bound, or a side has fewer
  than three runs so its spread is unknown: "no change" cannot be told
  from a change.  Reported instead of any of the above unless every run
  of B reads better than every run of A.

Layer metrics of the traced passes that moved by more than a tenth are
listed, and every exact counter that changed at all.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Optional, Sequence

from . import spec

__all__ = ["main", "load_rows", "verdict", "spread"]

#: Relative change above which an (ungated) layer metric is listed.
LAYER_MOVED = 0.10
#: Runs a side needs before its spread — and so any verdict — is known.
MIN_RUNS = 3


def load_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read().strip()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _values(rows, workload: str, which: str, section: str, name: str) -> list[float]:
    out = []
    for row in rows:
        entry = (
            row["workloads"].get(workload, {}).get(which, {})
            .get(section, {}).get(name)
        )
        if entry is not None:
            out.append(entry["value"])
    return out


def spread(values: Sequence[float], absolute: bool) -> Optional[float]:
    """Quartile distance of one side's runs — as a share of their median,
    or as is for an absolute bound; None from fewer than MIN_RUNS runs."""
    if len(values) < MIN_RUNS:
        return None
    q1, _mid, q3 = statistics.quantiles(values, n=4)
    width = abs(q3 - q1)
    if absolute:
        return width
    mid = abs(statistics.median(values))
    return width / mid if mid else float("inf")


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float,
    absolute: bool,
) -> str:
    """Classify B against A for one metric on one workload."""
    if not a:
        return "new"
    if not b:
        return "worse"
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a)
    allowed = bound if absolute else bound * abs(med_a)
    spreads = (spread(a, absolute), spread(b, absolute))
    if None in spreads or max(spreads) > bound:
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return "better" if all_better and None not in spreads else "unresolved"
    if worse_by > allowed:
        return "worse"
    if -worse_by > allowed:
        return "better"
    return "within bound"


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python -m perf compare A.json B.json", file=sys.stderr)
        return 2
    rows_a, rows_b = load_rows(argv[0]), load_rows(argv[1])
    print(f"A: {argv[0]} ({len(rows_a)} run(s))   B: {argv[1]} ({len(rows_b)} run(s))")
    if min(len(rows_a), len(rows_b)) < MIN_RUNS:
        print(
            f"note: fewer than {MIN_RUNS} runs on a side — the run-to-run spread "
            "is unknown, so every cell is unresolved; single runs of one commit "
            "differ by 10-30 % on the 2-core sandbox (README)"
        )
    print(
        f"{'workload':<12} {'metric':<18} {'A':>12} {'B':>12} {'change':>9} "
        f"{'bound':>8}  verdict"
    )
    regressions = 0
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            if workload not in metric.workloads:
                continue
            a = _values(rows_a, workload, "untraced", "metrics", metric.name)
            b = _values(rows_b, workload, "untraced", "metrics", metric.name)
            if not a and not b:
                continue
            bound, absolute = spec.bound_for(metric.name, workload)
            outcome = verdict(a, b, metric.better, bound, absolute)
            regressions += outcome == "worse"
            med_a = statistics.median(a) if a else float("nan")
            med_b = statistics.median(b) if b else float("nan")
            if absolute:
                change = f"{med_b - med_a:+.4f}"
                limit = f"+{bound:g}"
            else:
                change = f"{100 * (med_b - med_a) / med_a:+.1f}%" if a and b and med_a else "n/a"
                limit = f"{100 * bound:g}%"
            print(
                f"{workload:<12} {metric.name:<18} {_fmt(med_a):>12} "
                f"{_fmt(med_b):>12} {change:>9} {limit:>8}  {outcome}"
            )

    moved, exact = [], []
    for workload in spec.WORKLOADS:
        for layer in spec.LAYER:
            a = _values(rows_a, workload, "traced", "layers", layer.name)
            b = _values(rows_b, workload, "traced", "layers", layer.name)
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            line = f"  {workload:<12} {layer.name:<38} {_fmt(med_a):>12} -> {_fmt(med_b):<12}"
            if layer.exact:
                if set(a) != set(b):
                    exact.append(line)
            elif med_a and abs(med_b - med_a) / abs(med_a) > LAYER_MOVED:
                moved.append(
                    f"{line} {100 * (med_b - med_a) / med_a:+.1f}%  (moves {layer.moves})"
                )
    print(f"\nlayer metrics that moved by more than {100 * LAYER_MOVED:g}%:")
    print("\n".join(moved) if moved else "  none")
    print("\nexact counters that changed:")
    print("\n".join(exact) if exact else "  none")
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0
