"""Command-line experiment runner: ``python -m repro.bench``.

Regenerates the paper's tables and figures and checks every claim made
about them (:mod:`repro.bench.claims`):

    python -m repro.bench --list
    python -m repro.bench table1 fig5
    python -m repro.bench --scale 1.0 all
    python -m repro.bench --trace fig7            # + invariant checkers
    python -m repro.bench --trace --trace-jsonl /tmp/fig7.jsonl fig7

After the tables it prints one ``pass`` / ``FAIL`` / ``skip`` line per
claim of the experiments run, and exits 1 on a failed claim or a trace
invariant violation.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from ..trace import TraceConfig
from .claims import ALIASES, CLAIMS, EXPERIMENTS
from .harness import DEFAULT_SCALE, get_workload, set_tracing, trace_reports
from .render import heading, render_table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures and check its claims.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="which experiments to run (see --list); 'all' runs everything",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help=f"workload scale, a fraction of the paper's maps (default {DEFAULT_SCALE})",
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
    if not (math.isfinite(args.scale) and args.scale > 0):
        parser.error(f"--scale must be a positive finite number, got {args.scale}")
    if args.trace_jsonl is not None and not args.trace:
        parser.error("--trace-jsonl needs --trace")

    if args.list or not args.experiments:
        for name, (title, _) in EXPERIMENTS.items():
            print(f"  {name:<16} {title}")
        return 0

    unknown = [e for e in args.experiments
               if e != "all" and e not in EXPERIMENTS and e not in ALIASES]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    wanted = list(EXPERIMENTS) if "all" in args.experiments else list(
        dict.fromkeys(ALIASES.get(e, e) for e in args.experiments)
    )

    scale = args.scale
    print(f"scale = {scale} "
          f"({'paper size' if scale == 1.0 else 'scaled workload'})")
    workload = get_workload(scale)

    if args.trace:
        set_tracing(TraceConfig(jsonl_path=args.trace_jsonl))

    failures = 0
    results = {}
    for name in wanted:
        title, run = EXPERIMENTS[name]
        started = time.perf_counter()
        rows = results[name] = run(workload)
        elapsed = time.perf_counter() - started
        columns = list(dict.fromkeys(key for row in rows for key in row))
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

    print(heading(f"Claims at scale {scale}"))
    counts = {"pass": 0, "FAIL": 0, "skip": 0}
    for claim in CLAIMS:
        if claim.experiment not in results:
            continue
        verdict = claim.verdict(results[claim.experiment], scale)
        counts[verdict] += 1
        label = f"{claim.experiment}/{claim.name}"
        note = f"  (checked from scale {claim.min_scale})" if verdict == "skip" else ""
        print(f"  {verdict:<4}  {label:<40} {claim.sentence}{note}")
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if failures or counts["FAIL"] else 0


if __name__ == "__main__":
    sys.exit(main())
