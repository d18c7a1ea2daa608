"""Table 1: parameters of the R*-trees (paper section 4.1).

Regenerates the tree-shape statistics — height, data entries, data pages,
directory pages — and the task count m, side by side with the paper's
values.  The benchmark measures the tree construction (STR packing of the
full map), the operation Table 1 characterises.
"""

from repro.bench import active_scale, heading, render_table, report, table1_rows
from repro.datagen import build_tree


def bench_build_tree1(benchmark, workload):
    tree = benchmark.pedantic(
        build_tree, args=(workload.map1,), rounds=1, iterations=1
    )
    assert len(tree) == len(workload.map1)


def bench_table1_report(benchmark, workload):
    rows = benchmark.pedantic(table1_rows, args=(workload,), rounds=1, iterations=1)
    report(
        "table1",
        heading(f"Table 1 — R*-tree parameters (scale={active_scale()})")
        + "\n"
        + render_table(
            rows, ["parameter", "tree1", "tree2", "paper tree1", "paper tree2"]
        ),
    )
    heights = [row for row in rows if row["parameter"] == "height"]
    assert heights[0]["tree1"] in (2, 3, 4)
