"""Command-line experiment runner: ``python -m repro.bench``.

Regenerates the paper's tables and figures without pytest:

    python -m repro.bench --list
    python -m repro.bench table1 fig5
    python -m repro.bench --scale 1.0 all
    python -m repro.bench --trace fig7            # + invariant checkers
    python -m repro.bench --trace --trace-jsonl /tmp/fig7.jsonl fig7
"""

from __future__ import annotations

import argparse
import sys
import time

from ..trace import TraceConfig
from . import (
    ablation_task_order,
    ablation_tuning_techniques,
    active_scale,
    figure5,
    figure7,
    figure8,
    figure9_and_10,
    get_workload,
    heading,
    render_table,
    set_tracing,
    table1_rows,
    table2_rows,
    trace_reports,
)

EXPERIMENTS: dict[str, tuple[str, list[str]]] = {
    "table1": ("Table 1 — R*-tree parameters",
               ["parameter", "tree1", "tree2", "paper tree1", "paper tree2"]),
    "table2": ("Table 2 — KSR1 memory parameters",
               ["memory", "size of address space", "transfer unit (bytes)",
                "band width (MB/sec)", "latency (usec)", "4KB page copy (usec)"]),
    "fig5": ("Figure 5 — disk accesses vs buffer size",
             ["processors", "buffer (paper pages)", "lsr", "gsrr", "gd"]),
    "fig7": ("Figure 7 — task reassignment",
             ["variant", "reassignment", "first (s)", "avg (s)", "last (s)",
              "disk accesses", "reassignments"]),
    "fig8": ("Figure 8 — victim selection",
             ["variant", "a: max load", "b: arbitrary"]),
    "fig9": ("Figures 9/10 — response time, speed-up, disk accesses",
             ["series", "processors", "response (s)", "speedup",
              "disk accesses", "total run time (s)"]),
    "ablation-order": ("Ablation — task order",
                       ["variant", "task order", "disk accesses", "response (s)"]),
    "ablation-tuning": ("Ablation — BKS93 tuning techniques",
                        ["restriction", "plane sweep", "intersection tests",
                         "candidates"]),
}

RUNNERS = {
    "table1": lambda wl: table1_rows(wl),
    "table2": lambda wl: table2_rows(),
    "fig5": figure5,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9_and_10,
    "fig10": figure9_and_10,
    "ablation-order": ablation_task_order,
    "ablation-tuning": ablation_tuning_techniques,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="which experiments to run (see --list); 'all' runs everything",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale (default: REPRO_SCALE env var or 0.25)",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record event traces and run the invariant checkers on every "
        "simulated join; verdict summaries are printed per experiment",
    )
    parser.add_argument(
        "--trace-jsonl",
        metavar="PATH",
        default=None,
        help="with --trace: additionally stream each run's events to "
        "PATH (a run counter is inserted before the file suffix)",
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        for name, (title, _) in EXPERIMENTS.items():
            print(f"  {name:<16} {title}")
        return 0

    wanted = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [e for e in wanted if e not in EXPERIMENTS and e != "fig10"]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    scale = args.scale if args.scale is not None else active_scale()
    print(f"scale = {scale} "
          f"({'paper size' if scale == 1.0 else 'scaled workload'})")
    workload = get_workload(scale)

    if args.trace:
        set_tracing(TraceConfig(jsonl_path=args.trace_jsonl))

    failures = 0
    for name in wanted:
        title, columns = EXPERIMENTS.get(name, EXPERIMENTS["fig9"])
        started = time.perf_counter()
        rows = RUNNERS[name](workload)
        elapsed = time.perf_counter() - started
        print(heading(f"{title}  [{elapsed:.1f} s]"))
        print(render_table(rows, columns))
        if args.trace and trace_reports:
            print(f"\ntrace verdicts ({len(trace_reports)} runs):")
            for line in trace_reports:
                print(f"  {line}")
                if "VIOLATION" in line:
                    failures += 1
            trace_reports.clear()
    if args.trace:
        set_tracing(None)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
