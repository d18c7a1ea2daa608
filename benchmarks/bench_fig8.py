"""Figure 8: selecting the processor to be helped (paper section 4.4).

Test series a: the idle processor helps the most-loaded processor
(highest (hl, ns) report); series b: an arbitrary processor ([SN 93]).
n = 8, reassignment on all levels.

Expected shape: a small increase in disk accesses for local buffers with
the arbitrary choice; no meaningful difference for the global buffer.
"""

from repro.bench import active_scale, figure8, heading, render_table, report


def bench_figure8(benchmark, workload):
    rows = benchmark.pedantic(figure8, args=(workload,), rounds=1, iterations=1)
    report(
        "figure8",
        heading(f"Figure 8 — victim selection a/b (scale={active_scale()})")
        + "\n"
        + render_table(rows, ["variant", "a: max load", "b: arbitrary"]),
    )
    by_variant = {r["variant"]: r for r in rows}
    # Global-buffer variants: the two strategies stay close.
    for variant in ("gsrr", "gd"):
        a = by_variant[variant]["a: max load"]
        b = by_variant[variant]["b: arbitrary"]
        assert abs(a - b) / max(a, b) < 0.25
