"""Shared infrastructure of the paper's experiments.

Every experiment pulls its workload from here: the two synthetic maps and
their R*-trees are built once per scale and cached in-process, so
``python -m repro.bench all`` pays the generation cost a single time.

Scaling: the paper's experiments use the full 131k/127k-object maps; the
runner defaults to a quarter-scale workload so all experiments finish in
about a minute.  Buffer sizes scale along with the data (the paper's
200-3,200 total pages stay proportional to the tree sizes).  ``--scale
1.0`` runs the paper-size experiments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

from ..datagen import MapData, build_tree, paper_maps
from ..join import (
    ParallelJoinConfig,
    ParallelJoinResult,
    parallel_spatial_join,
    prepare_trees,
)
from ..rtree.pagestore import PageStore
from ..rtree.rstar import RStarTree
from ..trace import TraceConfig

__all__ = [
    "Workload",
    "get_workload",
    "run_join",
    "scaled_pages",
    "set_tracing",
    "trace_reports",
]

_CACHE: dict[float, "Workload"] = {}

#: Default experiment scale (fraction of the paper's object counts).
DEFAULT_SCALE = 0.25


@dataclass
class Workload:
    """The two maps, their prepared R*-trees and the shared page store —
    the paper's paged index, which is what every experiment here measures
    (the packed in-memory backend is measured by ``perf``)."""

    scale: float
    map1: MapData
    map2: MapData
    tree1: RStarTree
    tree2: RStarTree
    page_store: PageStore


def get_workload(scale: float) -> Workload:
    """Build (or fetch the cached) paper workload at *scale*."""
    cached = _CACHE.get(scale)
    if cached is not None:
        return cached
    map1, map2 = paper_maps(scale=scale)
    tree1 = build_tree(map1)
    tree2 = build_tree(map2)
    page_store = prepare_trees(tree1, tree2)
    workload = Workload(scale, map1, map2, tree1, tree2, page_store)
    _CACHE[scale] = workload
    return workload


def scaled_pages(paper_pages: int, scale: float) -> int:
    """Translate a paper buffer size (pages) to the current scale."""
    return max(4, round(paper_pages * scale))


#: When set (``--trace`` on the CLI runner), every ``run_join`` without an
#: explicit trace config runs traced and reports its checker verdicts.
_FORCED_TRACE: Optional[TraceConfig] = None
_RUN_COUNTER = 0

#: One summary line per traced run since the last :func:`set_tracing` call.
trace_reports: list[str] = []


def set_tracing(trace: Optional[TraceConfig]) -> None:
    """Force (or stop forcing) event tracing for subsequent runs."""
    global _FORCED_TRACE, _RUN_COUNTER
    _FORCED_TRACE = trace
    _RUN_COUNTER = 0
    trace_reports.clear()


def run_join(workload: Workload, config: ParallelJoinConfig) -> ParallelJoinResult:
    """One experiment run against the cached workload (cold buffers).

    With tracing forced via :func:`set_tracing`, the run records its event
    stream, executes the invariant checkers and appends a verdict summary
    to :data:`trace_reports` (violations are also printed immediately —
    a benchmark on an unlawful simulation is meaningless).
    """
    global _RUN_COUNTER
    if _FORCED_TRACE is not None and config.trace is None:
        trace = _FORCED_TRACE
        if trace.jsonl_path is not None:
            # One file per run: insert a counter before the file's suffix.
            root, ext = os.path.splitext(trace.jsonl_path)
            trace = replace(trace, jsonl_path=f"{root}.{_RUN_COUNTER:04d}{ext}")
        config = replace(config, trace=trace)
    result = parallel_spatial_join(
        workload.tree1, workload.tree2, config, page_store=workload.page_store
    )
    if result.trace is not None:
        _RUN_COUNTER += 1
        handle = result.trace
        label = (
            f"run {_RUN_COUNTER:>3}: {config.variant.short_name} n={config.processors} "
            f"d={config.disks} b={config.total_buffer_pages} "
            f"reassign={config.reassignment.level.value}"
        )
        state = "ok" if handle.ok else "INVARIANT VIOLATIONS"
        trace_reports.append(
            f"{label} — {handle.events_emitted} events, {state}"
        )
        if not handle.ok:
            for verdict in handle.failed:
                print(f"[trace] {label}: {verdict.summary()}")
                for violation in verdict.violations[:3]:
                    print(f"[trace]   - {violation}")
    return result
