"""Extension bench: parallel window and kNN queries (paper section 5).

The paper's future work names window and neighbour queries as the next
operations of a parallel spatial query framework.  This bench measures
both on the simulated machine: response time of a large window query as
the processor count grows (d = n, global buffer), and the page savings of
the shared kNN pruning bound.
"""

from repro.bench import active_scale, heading, render_table, report, scaled_pages
from repro.geometry import Rect
from repro.query import ParallelQueryConfig, parallel_knn, parallel_window_query, prepare_tree


def run_queries(workload):
    tree = workload.tree1
    page_store = prepare_tree(tree)
    side = workload.map1.region.side
    window = Rect(0.1 * side, 0.1 * side, 0.6 * side, 0.6 * side)
    rows = []
    baseline = None
    for n in (1, 2, 4, 8, 16):
        result = parallel_window_query(
            tree,
            window,
            ParallelQueryConfig(
                processors=n,
                disks=n,
                total_buffer_pages=scaled_pages(100 * n, workload.scale),
            ),
            page_store=page_store,
        )
        if baseline is None:
            baseline = result.response_time
        rows.append(
            {
                "query": "window 50% region",
                "processors": n,
                "response (s)": result.response_time,
                "speedup": baseline / result.response_time
                if result.response_time
                else float("inf"),
                "disk accesses": result.disk_accesses,
                "results": len(result.entries),
            }
        )
    knn = parallel_knn(
        tree,
        side / 2.0,
        side / 2.0,
        10,
        ParallelQueryConfig(
            processors=8, disks=8,
            total_buffer_pages=scaled_pages(800, workload.scale),
        ),
        page_store=page_store,
    )
    rows.append(
        {
            "query": "10-NN of center",
            "processors": 8,
            "response (s)": knn.response_time,
            "speedup": float("nan"),
            "disk accesses": knn.disk_accesses,
            "results": len(knn.entries),
        }
    )
    return rows


def bench_parallel_queries(benchmark, workload):
    rows = benchmark.pedantic(run_queries, args=(workload,), rounds=1, iterations=1)
    report(
        "queries",
        heading(f"Parallel window / kNN queries (scale={active_scale()})")
        + "\n"
        + render_table(
            rows,
            ["query", "processors", "response (s)", "speedup",
             "disk accesses", "results"],
        ),
    )
    window_rows = [r for r in rows if r["query"].startswith("window")]
    by_n = {r["processors"]: r for r in window_rows}
    assert by_n[8]["response (s)"] < by_n[1]["response (s)"]
    assert by_n[8]["speedup"] > 3
    # Every processor count finds the same result cardinality.
    assert len({r["results"] for r in window_rows}) == 1
    knn_row = rows[-1]
    assert knn_row["results"] == 10
