"""Figure 5: disk accesses vs total LRU-buffer size (paper section 4.3).

Sweep: buffer 200-3,200 paper-pages (scaled), variants lsr / gsrr / gd,
n = 8 and n = 24 processors with d = n disks, task reassignment on the
root level.  Expected shape (the paper's findings):

* more buffer → fewer disk accesses, for every variant;
* lsr and gsrr close together, gd lowest;
* the global buffer profits more from larger buffers than local ones;
* 24 processors need more disk accesses than 8 (smaller per-processor
  buffers).
"""

from repro.bench import active_scale, figure5, heading, render_table, report


def bench_figure5(benchmark, workload):
    rows = benchmark.pedantic(figure5, args=(workload,), rounds=1, iterations=1)
    report(
        "figure5",
        heading(f"Figure 5 — disk accesses vs buffer size (scale={active_scale()})")
        + "\n"
        + render_table(rows, ["processors", "buffer (paper pages)", "lsr", "gsrr", "gd"]),
    )

    by_n = {8: [], 24: []}
    for row in rows:
        by_n[row["processors"]].append(row)
    for n, series in by_n.items():
        # Monotone-ish: the largest buffer needs fewer accesses than the
        # smallest, for every variant.
        for variant in ("lsr", "gsrr", "gd"):
            assert series[-1][variant] < series[0][variant]
        # gd at most lsr on the biggest buffer.
        assert series[-1]["gd"] <= series[-1]["lsr"]
    # More processors split the same local buffer into smaller pieces:
    # lsr cannot get cheaper at 24 than at 8 (smallest buffer point).
    assert by_n[24][0]["lsr"] >= by_n[8][0]["lsr"] * 0.95
