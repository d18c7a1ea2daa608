"""Extension bench: the shared-nothing join (paper section 5 future work).

Grid over data placement (spatial vs round-robin declustering) and task
assignment (static range / round-robin / dynamic-with-coordinator) at
n = 8 nodes, against the SVM ``gd`` reference.  The paper's open question
— "the assignment of the data to the different disks is of special
interest" — becomes measurable: spatial placement with the range
assignment keeps accesses local (fewest remote fetches), spatially blind
placement turns most accesses into network traffic.
"""

from repro.bench import (
    active_scale,
    get_workload,
    heading,
    render_table,
    report,
    scaled_pages,
)
from repro.join import GD, ParallelJoinConfig, ReassignLevel, ReassignmentPolicy, parallel_spatial_join
from repro.join.assignment import AssignmentMode
from repro.join.shared_nothing import Placement, SharedNothingConfig, shared_nothing_join


def run_grid(workload):
    n = 8
    pages_per_node = scaled_pages(100, workload.scale)
    rows = []
    for placement in (Placement.SPATIAL, Placement.ROUND_ROBIN):
        for assignment, label in (
            (AssignmentMode.STATIC_RANGE, "range"),
            (AssignmentMode.STATIC_ROUND_ROBIN, "round-robin"),
            (AssignmentMode.DYNAMIC, "dynamic"),
        ):
            result = shared_nothing_join(
                workload.tree1,
                workload.tree2,
                SharedNothingConfig(
                    processors=n,
                    buffer_pages_per_processor=pages_per_node,
                    placement=placement,
                    assignment=assignment,
                ),
                page_store=workload.page_store,
            )
            rows.append(
                {
                    "architecture": f"SN {placement.value}",
                    "assignment": label,
                    "response (s)": result.response_time,
                    "disk accesses": result.disk_accesses,
                    "remote fetches": result.metrics["remote_fetches"],
                }
            )
    svm = parallel_spatial_join(
        workload.tree1,
        workload.tree2,
        ParallelJoinConfig(
            processors=n,
            disks=n,
            total_buffer_pages=pages_per_node * n,
            variant=GD,
            reassignment=ReassignmentPolicy(level=ReassignLevel.ALL),
        ),
        page_store=workload.page_store,
    )
    rows.append(
        {
            "architecture": "SVM (reference)",
            "assignment": "gd + reassign-all",
            "response (s)": svm.response_time,
            "disk accesses": svm.disk_accesses,
            "remote fetches": svm.metrics["remote_hits"],
        }
    )
    return rows


def bench_shared_nothing(benchmark, workload):
    rows = benchmark.pedantic(run_grid, args=(workload,), rounds=1, iterations=1)
    report(
        "shared_nothing",
        heading(f"Shared-nothing join (scale={active_scale()}, n=8)")
        + "\n"
        + render_table(
            rows,
            ["architecture", "assignment", "response (s)", "disk accesses",
             "remote fetches"],
        ),
    )
    by_key = {(r["architecture"], r["assignment"]): r for r in rows}
    spatial_range = by_key[("SN spatial", "range")]
    blind_range = by_key[("SN round-robin", "range")]
    # Spatial declustering + spatially contiguous workloads = locality.
    assert spatial_range["remote fetches"] < blind_range["remote fetches"]
