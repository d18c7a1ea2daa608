"""Ablations of the design choices DESIGN.md calls out.

1. **Plane-sweep task order** (sections 2.2/3.1): shuffling the task list
   destroys spatial locality and should cost disk accesses, most visibly
   for local buffers.
2. **BKS93 tuning techniques** (section 2.2): search-space restriction and
   the node-level plane sweep vs the naive nested loop, measured in
   intersection tests of the sequential filter step.
"""

from repro.bench import (
    ablation_task_order,
    ablation_tuning_techniques,
    active_scale,
    heading,
    render_table,
    report,
)


def bench_ablation_task_order(benchmark, workload):
    rows = benchmark.pedantic(
        ablation_task_order, args=(workload,), rounds=1, iterations=1
    )
    report(
        "ablation_task_order",
        heading(f"Ablation — task order (scale={active_scale()})")
        + "\n"
        + render_table(rows, ["variant", "task order", "disk accesses", "response (s)"]),
    )
    by_key = {(r["variant"], r["task order"]): r for r in rows}
    # Destroying the plane-sweep order must not *reduce* lsr disk accesses.
    assert (
        by_key[("lsr", "shuffled")]["disk accesses"]
        >= by_key[("lsr", "plane-sweep order")]["disk accesses"]
    )


def bench_ablation_tuning(benchmark, workload):
    rows = benchmark.pedantic(
        ablation_tuning_techniques, args=(workload,), rounds=1, iterations=1
    )
    report(
        "ablation_tuning",
        heading(f"Ablation — BKS93 tuning techniques (scale={active_scale()})")
        + "\n"
        + render_table(
            rows, ["restriction", "plane sweep", "intersection tests", "candidates"]
        ),
    )
    tests = {
        (r["restriction"], r["plane sweep"]): r["intersection tests"] for r in rows
    }
    candidates = {r["candidates"] for r in rows}
    assert len(candidates) == 1  # all variants agree on the result
    assert tests[("on", "on")] < tests[("off", "off")]
