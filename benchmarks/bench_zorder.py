"""Extension bench: R*-tree filter vs the z-order filter of [OM 88].

The paper's related-work section contrasts its R-tree-based filter with
PROBE's z-ordering + B-trees.  This bench joins the same maps both ways
and compares the CPU-side costs: intersection/interval tests, index entry
counts (z-decomposition replicates objects), duplicates and z-false hits
— while verifying the candidate sets are identical.
"""

import time

from repro.bench import active_scale, heading, render_table, report
from repro.join import sequential_join
from repro.zorder import zorder_join


def run_comparison(workload):
    items_r = workload.map1.items()
    items_s = workload.map2.items()
    bounds = workload.map1.region.bounds

    started = time.perf_counter()
    rtree_result = sequential_join(workload.tree1, workload.tree2)
    rtree_seconds = time.perf_counter() - started

    rows = [
        {
            "filter": "R*-tree join [BKS 93]",
            "index entries": workload.tree1.size + workload.tree2.size,
            "tests": rtree_result.intersection_tests,
            "duplicates": 0,
            "false matches": 0,
            "candidates": rtree_result.candidates,
            "wall (s)": rtree_seconds,
        }
    ]
    for max_regions in (1, 4):
        started = time.perf_counter()
        pairs, stats = zorder_join(
            items_r, items_s, bounds, bits=14, max_regions=max_regions
        )
        z_seconds = time.perf_counter() - started
        assert set(pairs) == rtree_result.pair_set()
        rows.append(
            {
                "filter": f"z-order join [OM 88], {max_regions} region(s)",
                "index entries": stats.entries_r + stats.entries_s,
                "tests": stats.interval_tests,
                "duplicates": stats.duplicates,
                "false matches": stats.z_false_hits,
                "candidates": stats.candidates,
                "wall (s)": z_seconds,
            }
        )
    return rows


def bench_zorder_vs_rtree(benchmark, workload):
    rows = benchmark.pedantic(run_comparison, args=(workload,), rounds=1, iterations=1)
    report(
        "zorder",
        heading(f"R*-tree vs z-order filter (scale={active_scale()})")
        + "\n"
        + render_table(
            rows,
            ["filter", "index entries", "tests", "duplicates",
             "false matches", "candidates", "wall (s)"],
        ),
    )
    # Identical candidate sets were asserted inside; all rows agree.
    assert len({row["candidates"] for row in rows}) == 1
