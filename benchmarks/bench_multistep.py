"""Extension bench: the second filter step of [BKS 94] (paper section 2.1).

The paper omits the second filter because it does not change the parallel
design; we quantify what it would add: the convex-hull filter between the
MBR filter and the exact test removes a share of the false hits, so fewer
exact-geometry tests (10 ms each in the paper's cost model) remain.

This bench generates its own (smaller) workload because it needs exact
geometry attached to every object.
"""

from repro.bench import heading, render_table, report
from repro.datagen import build_tree, paper_maps
from repro.join import RefinementModel, multi_step_join

SCALE = 0.05


def run_pipeline():
    map1, map2 = paper_maps(scale=SCALE, include_geometry=True)
    tree_r, tree_s = build_tree(map1), build_tree(map2)
    geo1 = {o.oid: o.points for o in map1.objects}
    geo2 = {o.oid: o.points for o in map2.objects}
    two_step = multi_step_join(tree_r, tree_s, geo1, geo2, use_second_filter=False)
    three_step = multi_step_join(tree_r, tree_s, geo1, geo2)
    model = RefinementModel()
    # The exact test costs ~10 ms in the paper's model; the hull test is a
    # cheap CPU check, conservatively 1 ms.
    hull_cost = 1e-3
    rows = [
        {
            "pipeline": "MBR filter -> exact",
            "MBR candidates": two_step.mbr_candidates,
            "hull survivors": two_step.hull_survivors,
            "exact tests": two_step.exact_tests,
            "answers": len(two_step.answers),
            "est. refinement cost (s)": two_step.exact_tests * 10e-3,
        },
        {
            "pipeline": "MBR -> hull -> exact",
            "MBR candidates": three_step.mbr_candidates,
            "hull survivors": three_step.hull_survivors,
            "exact tests": three_step.exact_tests,
            "answers": len(three_step.answers),
            "est. refinement cost (s)": three_step.mbr_candidates * hull_cost
            + three_step.exact_tests * 10e-3,
        },
    ]
    return rows, two_step, three_step


def bench_multistep(benchmark):
    rows, two_step, three_step = benchmark.pedantic(
        run_pipeline, rounds=1, iterations=1
    )
    report(
        "multistep",
        heading(f"Second filter step [BKS 94] (scale={SCALE})")
        + "\n"
        + render_table(
            rows,
            ["pipeline", "MBR candidates", "hull survivors", "exact tests",
             "answers", "est. refinement cost (s)"],
        ),
    )
    assert set(three_step.answers) == set(two_step.answers)
    assert three_step.exact_tests < two_step.exact_tests
