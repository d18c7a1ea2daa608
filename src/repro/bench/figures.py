"""Experiment drivers for Figures 5, 7, 8, 9 and 10, the ablations and
the four extension experiments.

Each driver runs its parameter sweep against the cached workload and
returns structured rows; :mod:`repro.bench.claims` names them and states
what each must show.  Buffer sizes given in paper pages are scaled with
the workload (see :mod:`repro.bench.harness`).
"""

from __future__ import annotations

import time

from ..datagen import paper_maps
from ..geometry import Rect
from ..join import (
    GD,
    GSRR,
    LSR,
    AssignmentMode,
    JoinVariant,
    ParallelJoinConfig,
    Placement,
    ReassignLevel,
    ReassignmentPolicy,
    SharedNothingConfig,
    VictimChoice,
    multi_step_join,
    prepare_trees,
    sequential_join,
    shared_nothing_join,
)
from ..query import ParallelQueryConfig, parallel_knn, parallel_window_query
from ..zorder import zorder_join
from .harness import Workload, get_workload, run_join, scaled_pages

__all__ = [
    "VARIANTS",
    "figure5",
    "figure7",
    "figure8",
    "figure9_and_10",
    "ablation_task_order",
    "ablation_tuning_techniques",
    "shared_nothing_grid",
    "parallel_queries",
    "second_filter",
    "zorder_vs_rtree",
]

VARIANTS: list[JoinVariant] = [LSR, GSRR, GD]

#: The paper's Figure 5 x-axis (total LRU buffer pages).
FIG5_BUFFERS = [200, 400, 800, 1600, 3200]
#: Processor counts sampled for Figures 9/10 (paper: 1..24).
FIG9_PROCESSORS = [1, 2, 4, 8, 12, 16, 20, 24]

ROOT_POLICY = ReassignmentPolicy(level=ReassignLevel.ROOT)
ALL_POLICY = ReassignmentPolicy(level=ReassignLevel.ALL)
NO_POLICY = ReassignmentPolicy(level=ReassignLevel.NONE)


def figure5(workload: Workload) -> list[dict[str, object]]:
    """Disk accesses vs total buffer size for lsr/gsrr/gd at n = 8 and 24.

    Section 4.3's setup: d = n, task reassignment on the root level.
    """
    rows = []
    for n in (8, 24):
        for paper_pages in FIG5_BUFFERS:
            row: dict[str, object] = {
                "processors": n,
                "buffer (paper pages)": paper_pages,
            }
            for variant in VARIANTS:
                result = run_join(
                    workload,
                    ParallelJoinConfig(
                        processors=n,
                        disks=n,
                        total_buffer_pages=scaled_pages(paper_pages, workload.scale),
                        variant=variant,
                        reassignment=ROOT_POLICY,
                    ),
                )
                row[variant.short_name] = result.disk_accesses
            rows.append(row)
    return rows


def figure7(workload: Workload) -> list[dict[str, object]]:
    """Run times (first/avg/last processor) and disk accesses with
    reassignment off / root level / all levels (section 4.4; n = d = 8,
    800-page buffer)."""
    policies = [
        ("without", NO_POLICY),
        ("root level", ROOT_POLICY),
        ("all levels", ALL_POLICY),
    ]
    rows = []
    for variant in VARIANTS:
        for label, policy in policies:
            result = run_join(
                workload,
                ParallelJoinConfig(
                    processors=8,
                    disks=8,
                    total_buffer_pages=scaled_pages(800, workload.scale),
                    variant=variant,
                    reassignment=policy,
                ),
            )
            rows.append(
                {
                    "variant": variant.short_name,
                    "reassignment": label,
                    "first (s)": result.times.first_finish,
                    "avg (s)": result.times.average_finish,
                    "last (s)": result.times.response_time,
                    "disk accesses": result.disk_accesses,
                    "reassignments": result.reassignments,
                }
            )
    return rows


def figure8(workload: Workload) -> list[dict[str, object]]:
    """Victim selection: most-loaded (a) vs arbitrary (b); n = 8
    (section 4.4, reassignment on all levels)."""
    rows = []
    for variant in VARIANTS:
        row: dict[str, object] = {"variant": variant.short_name}
        for label, victim in (
            ("a: max load", VictimChoice.MAX_LOAD),
            ("b: arbitrary", VictimChoice.ARBITRARY),
        ):
            result = run_join(
                workload,
                ParallelJoinConfig(
                    processors=8,
                    disks=8,
                    total_buffer_pages=scaled_pages(800, workload.scale),
                    variant=variant,
                    reassignment=ReassignmentPolicy(
                        level=ReassignLevel.ALL, victim=victim
                    ),
                ),
            )
            row[label] = result.disk_accesses
        rows.append(row)
    return rows


def figure9_and_10(workload: Workload) -> list[dict[str, object]]:
    """Response time, speed-up and disk accesses vs processor count for
    d = 1, d = 8 and d = n (sections 4.5; gd + reassignment on all levels,
    buffer of 100 pages per processor)."""
    rows = []
    baselines: dict[str, float] = {}
    for series, disks_of in (
        ("d=1", lambda n: 1),
        ("d=8", lambda n: 8),
        ("d=n", lambda n: n),
    ):
        for n in FIG9_PROCESSORS:
            result = run_join(
                workload,
                ParallelJoinConfig(
                    processors=n,
                    disks=disks_of(n),
                    total_buffer_pages=scaled_pages(100 * n, workload.scale),
                    variant=GD,
                    reassignment=ALL_POLICY,
                ),
            )
            if n == 1:
                baselines[series] = result.response_time
            rows.append(
                {
                    "series": series,
                    "processors": n,
                    "response (s)": result.response_time,
                    "speedup": baselines[series] / result.response_time
                    if result.response_time
                    else float("inf"),
                    "disk accesses": result.disk_accesses,
                    "total run time (s)": result.times.total_run_time,
                }
            )
    return rows


def ablation_task_order(workload: Workload) -> list[dict[str, object]]:
    """How much the plane-sweep task order is worth: shuffled tasks destroy
    the spatial locality that the buffers exploit."""
    rows = []
    for variant in VARIANTS:
        for label, seed in (("plane-sweep order", None), ("shuffled", 1234)):
            result = run_join(
                workload,
                ParallelJoinConfig(
                    processors=8,
                    disks=8,
                    total_buffer_pages=scaled_pages(800, workload.scale),
                    variant=variant,
                    reassignment=ROOT_POLICY,
                    shuffle_tasks_seed=seed,
                ),
            )
            rows.append(
                {
                    "variant": variant.short_name,
                    "task order": label,
                    "disk accesses": result.disk_accesses,
                    "response (s)": result.response_time,
                }
            )
    return rows


def ablation_tuning_techniques(workload: Workload) -> list[dict[str, object]]:
    """CPU effect of [BKS 93]'s tuning: search-space restriction and the
    node-level plane sweep (intersection-test counts of the sequential
    filter step)."""
    rows = []
    for restriction in (True, False):
        for sweep in (True, False):
            result = sequential_join(
                workload.tree1,
                workload.tree2,
                use_restriction=restriction,
                use_sweep=sweep,
            )
            rows.append(
                {
                    "restriction": "on" if restriction else "off",
                    "plane sweep": "on" if sweep else "off",
                    "intersection tests": result.intersection_tests,
                    "candidates": result.candidates,
                }
            )
    return rows


def shared_nothing_grid(workload: Workload) -> list[dict[str, object]]:
    """The paper's future work, section 5: data placement (spatial vs
    round-robin declustering) × task assignment on an n = 8 node
    shared-nothing cluster, against the SVM ``gd`` reference."""
    n, pages = 8, scaled_pages(100, workload.scale)
    rows = []
    for placement in (Placement.SPATIAL, Placement.ROUND_ROBIN):
        for assignment in AssignmentMode:
            result = shared_nothing_join(
                workload.tree1, workload.tree2,
                SharedNothingConfig(processors=n, buffer_pages_per_processor=pages,
                                    placement=placement, assignment=assignment),
                page_store=workload.page_store,
            )
            rows.append({"architecture": f"SN {placement.value}",
                         "assignment": assignment.value,
                         "response (s)": result.response_time,
                         "disk accesses": result.disk_accesses,
                         "remote fetches": result.metrics["remote_fetches"]})
    svm = run_join(workload, ParallelJoinConfig(
        processors=n, disks=n, total_buffer_pages=pages * n, variant=GD,
        reassignment=ALL_POLICY))
    rows.append({"architecture": "SVM (reference)", "assignment": "gd + reassign-all",
                 "response (s)": svm.response_time, "disk accesses": svm.disk_accesses,
                 "remote fetches": svm.metrics["remote_hits"]})
    return rows


def parallel_queries(workload: Workload) -> list[dict[str, object]]:
    """The paper's other future-work operations: a window over half the
    region as the processor count grows (d = n, global buffer), then a
    parallel 10-NN search with the SVM-shared pruning bound."""
    tree = workload.tree1
    page_store = prepare_trees(tree, tree)
    side = workload.map1.region.side
    window = Rect(0.1 * side, 0.1 * side, 0.6 * side, 0.6 * side)
    rows = []
    for n in (1, 2, 4, 8, 16):
        result = parallel_window_query(tree, window, ParallelQueryConfig(
            processors=n, disks=n, total_buffer_pages=scaled_pages(100 * n, workload.scale),
        ), page_store=page_store)
        rows.append({"query": "window 50% region", "processors": n,
                     "response (s)": result.response_time,
                     "speedup": rows[0]["response (s)"] / result.response_time if rows else 1.0,
                     "disk accesses": result.disk_accesses, "results": len(result.entries)})
    knn = parallel_knn(tree, side / 2.0, side / 2.0, 10, ParallelQueryConfig(
        processors=8, disks=8, total_buffer_pages=scaled_pages(800, workload.scale),
    ), page_store=page_store)
    rows.append({"query": "10-NN of center", "processors": 8,
                 "response (s)": knn.response_time, "disk accesses": knn.disk_accesses,
                 "results": len(knn.entries)})
    return rows


#: Simulated cost of one exact-geometry test (the paper's average) and,
#: conservatively, of one convex-hull test.
EXACT_TEST_S = 10e-3
HULL_TEST_S = 1e-3


def second_filter(workload: Workload) -> list[dict[str, object]]:
    """[BKS 94]'s second filter step (paper section 2.1), which the paper
    omits: the convex-hull test between the MBR filter and the exact test,
    on the workload's trees with the maps' exact point chains."""
    geometry = [
        {o.oid: o.points for o in m.objects}
        for m in paper_maps(scale=workload.scale, include_geometry=True)
    ]
    rows = []
    for label, hull in (("MBR filter -> exact", False), ("MBR -> hull -> exact", True)):
        result = multi_step_join(workload.tree1, workload.tree2, *geometry,
                                 use_second_filter=hull)
        answers = set(result.answers)
        if not hull:
            reference = answers
        rows.append({"pipeline": label, "MBR candidates": result.mbr_candidates,
                     "hull survivors": result.hull_survivors,
                     "exact tests": result.exact_tests, "answers": len(answers),
                     "answers unlike 2-step": len(reference ^ answers),
                     "est. refinement cost (s)": result.exact_tests * EXACT_TEST_S
                     + (result.mbr_candidates * HULL_TEST_S if hull else 0.0)})
    return rows


#: The one-region z-order join holds every interval match in memory and
#: their number grows faster than the maps (159,550 at scale 0.02, 7.9 M and
#: ~1.4 GB at 0.25), so above this scale it runs on this scale's workload.
ZORDER_MAX_SCALE = 0.25


def zorder_vs_rtree(workload: Workload) -> list[dict[str, object]]:
    """The R*-tree filter against PROBE's z-ordering join [OM 88] on the
    same maps: tests, index entries (z-decomposition replicates objects),
    duplicates and z-false hits, and whether the candidate sets agree.
    The wall-clock column is reported, never claimed."""
    if workload.scale > ZORDER_MAX_SCALE:
        workload = get_workload(ZORDER_MAX_SCALE)
    started = time.perf_counter()
    rtree = sequential_join(workload.tree1, workload.tree2)
    reference = rtree.pair_set()
    rows = [{"filter": "R*-tree join [BKS 93]",
             "index entries": workload.tree1.size + workload.tree2.size,
             "tests": rtree.intersection_tests, "duplicates": 0, "false matches": 0,
             "candidates": rtree.candidates, "pairs unlike R*-tree": 0,
             "wall (s)": time.perf_counter() - started}]
    items_r, items_s = workload.map1.items(), workload.map2.items()
    for max_regions in (1, 4):
        started = time.perf_counter()
        pairs, stats = zorder_join(items_r, items_s, workload.map1.region.bounds,
                                   bits=14, max_regions=max_regions)
        rows.append({"filter": f"z-order join [OM 88], {max_regions} region(s)",
                     "index entries": stats.entries_r + stats.entries_s,
                     "tests": stats.interval_tests, "duplicates": stats.duplicates,
                     "false matches": stats.z_false_hits, "candidates": stats.candidates,
                     "pairs unlike R*-tree": len(reference ^ set(pairs)),
                     "wall (s)": time.perf_counter() - started})
    return rows
