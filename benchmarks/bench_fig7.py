"""Figure 7: effect of task reassignment (paper section 4.4).

For each variant (lsr / gsrr / gd) and reassignment setting (without /
root level / all levels) at n = d = 8 and an 800-page buffer: run time of
the first-/average-/last-finishing processor and the disk accesses.

Expected shape: reassignment shrinks the spread between first and last
finisher drastically for lsr and gsrr; for gd, root-level reassignment
changes nothing (the dynamic queue already hands out root pairs one by
one) and all-levels helps a little; disk accesses barely move for gd.
"""

from repro.bench import active_scale, figure7, heading, render_table, report


def bench_figure7(benchmark, workload):
    rows = benchmark.pedantic(figure7, args=(workload,), rounds=1, iterations=1)
    report(
        "figure7",
        heading(f"Figure 7 — task reassignment (scale={active_scale()})")
        + "\n"
        + render_table(
            rows,
            [
                "variant",
                "reassignment",
                "first (s)",
                "avg (s)",
                "last (s)",
                "disk accesses",
                "reassignments",
            ],
        ),
    )
    by_key = {(r["variant"], r["reassignment"]): r for r in rows}
    for variant in ("lsr", "gsrr"):
        without = by_key[(variant, "without")]
        balanced = by_key[(variant, "all levels")]
        spread_without = without["last (s)"] - without["first (s)"]
        spread_balanced = balanced["last (s)"] - balanced["first (s)"]
        assert spread_balanced < spread_without
        assert balanced["last (s)"] <= without["last (s)"]
    # gd: root-level reassignment is a no-op.
    assert (
        by_key[("gd", "without")]["last (s)"]
        == by_key[("gd", "root level")]["last (s)"]
    )
