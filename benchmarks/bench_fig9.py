"""Figure 9: response time vs number of processors (paper section 4.5).

Best variant (gd + reassignment on all levels), buffer of 100 pages per
processor (scaled), three disk series: d = 1, d = 8, d = n.

Expected shape: with one disk the response time flattens out around four
processors (the disk is the bottleneck); with d = 8 the curve drops until
about 8-10 processors; with d = n it keeps dropping to n = 24.
"""

from repro.bench import (
    active_scale,
    figure9_and_10,
    heading,
    render_series,
    render_table,
    report,
)

_CACHE: dict[int, list] = {}


def fig9_rows(workload):
    rows = _CACHE.get(id(workload))
    if rows is None:
        rows = figure9_and_10(workload)
        _CACHE[id(workload)] = rows
    return rows


def bench_figure9(benchmark, workload):
    rows = benchmark.pedantic(fig9_rows, args=(workload,), rounds=1, iterations=1)
    text = [
        heading(f"Figure 9 — response time vs processors (scale={active_scale()})"),
        render_table(rows, ["series", "processors", "response (s)"]),
    ]
    for series in ("d=1", "d=8", "d=n"):
        points = [(r["processors"], round(r["response (s)"], 1)) for r in rows if r["series"] == series]
        text.append(render_series(series, points))
    report("figure9", "\n".join(text))

    by_series = {
        s: {r["processors"]: r["response (s)"] for r in rows if r["series"] == s}
        for s in ("d=1", "d=8", "d=n")
    }
    # d=n keeps improving all the way to 24 processors.
    assert by_series["d=n"][24] < by_series["d=n"][8] < by_series["d=n"][1]
    # One disk saturates far below linear scaling.
    assert by_series["d=1"][1] / by_series["d=1"][24] < 8
    # With many processors, more disks are decisively faster.
    assert by_series["d=n"][24] * 2 < by_series["d=1"][24]
