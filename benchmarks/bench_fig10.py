"""Figure 10: speed-up and disk accesses vs number of processors
(paper section 4.5).

Same runs as Figure 9 (gd + reassignment on all levels, 100 pages of
buffer per processor).  The paper reports a near-linear speed-up for
d = n (22.6 at n = 24), a saturating curve for d = 8, a flat one for
d = 1, and *decreasing* disk accesses as n grows (the total global buffer
grows with n).
"""

from repro.bench import (
    active_scale,
    ascii_chart,
    heading,
    render_series,
    render_table,
    report,
)
from bench_fig9 import fig9_rows


def bench_figure10(benchmark, workload):
    rows = benchmark.pedantic(fig9_rows, args=(workload,), rounds=1, iterations=1)
    text = [
        heading(f"Figure 10 — speed-up and disk accesses (scale={active_scale()})"),
        render_table(
            rows,
            ["series", "processors", "speedup", "disk accesses", "total run time (s)"],
        ),
    ]
    for series in ("d=1", "d=8", "d=n"):
        points = [
            (r["processors"], round(r["speedup"], 1))
            for r in rows
            if r["series"] == series
        ]
        text.append(render_series(f"speedup {series}", points))
    chart_series = {
        series: [(r["processors"], r["speedup"]) for r in rows if r["series"] == series]
        for series in ("d=1", "d=8", "d=n")
    }
    text.append(
        ascii_chart(chart_series, x_label="processors", y_label="speed-up")
    )
    report("figure10", "\n".join(text))

    d_n = {r["processors"]: r for r in rows if r["series"] == "d=n"}
    d_1 = {r["processors"]: r for r in rows if r["series"] == "d=1"}
    # Near-linear speed-up for d=n (paper: 22.6 at 24).
    assert d_n[24]["speedup"] > 12
    assert d_n[8]["speedup"] > 5
    # d=1 saturates well below that.
    assert d_1[24]["speedup"] < d_n[24]["speedup"] / 2
    # Growing total buffer: disk accesses at 24 below those at 2.
    assert d_n[24]["disk accesses"] < d_n[2]["disk accesses"]
    # Total run time of all tasks stays within ~1.5x of t(1)'s
    # (the paper reports only a modest increase).
    assert d_n[24]["total run time (s)"] < d_n[1]["total run time (s)"] * 1.5
