"""``python -m perf run`` / ``python -m perf compare A.json B.json``.

``run`` with no ``--workload`` runs all four workloads (with ``--trace``
each a second time under the span recorder), prints every metric by name
with unit and sample count, appends one row to ``perf/history.jsonl`` and
exits non-zero if any oracle check failed.

``run --workload NAME --seed N --seconds S --trace 0|1`` is the driver's
unit of work: one pass of one workload, whose last stdout line is the
JSON object ``BENCHMARK.json`` describes.
"""

from __future__ import annotations

import argparse
import sys

from . import compare, runner, spec


def _run(args) -> int:
    plan = spec.Plan(workload="", seed=args.seed, seconds=args.seconds)
    if args.smoke:
        plan.scale, plan.seconds, plan.setups = 0.02, 4.0, 1
    single = args.workload is not None
    workloads = [args.workload] if single else list(spec.WORKLOADS)
    if single:
        passes = ["traced" if args.trace else "untraced"]
    else:
        passes = ["untraced", "traced"] if args.trace else ["untraced"]
    row = runner.run_all(plan, workloads, passes)
    for name, value in row["derived"].items():
        print(f"  derived {name:<40} {value:.4f}")
    if args.json:
        runner.append_row(args.json, row)
    if not single and not args.smoke:
        runner.append_row(runner.HISTORY, row)
    reports = [cell[p] for cell in row["workloads"].values() for p in passes]
    if single and "crashed" not in reports[0]["notes"]:
        # also after a watchdog kill: correct=false, attempted=1, failed=1.
        # A pass that could not even start (no src/ beside perf/) prints
        # no result at all.
        print(runner.contract_line(reports[0]))
    return 0 if all(report["correct"] for report in reports) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the benchmark")
    run.add_argument("--workload", choices=list(spec.WORKLOADS))
    run.add_argument("--seed", type=int, default=42,
                     help="seed of every input: maps, requests, arrivals, "
                     "probe queries, samples (numbers compare only at equal seed)")
    run.add_argument("--seconds", type=float, default=40.0,
                     help="measured seconds per workload")
    run.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                     choices=(0, 1), help="add (or, with --workload, run only) "
                     "the traced pass")
    run.add_argument("--smoke", action="store_true",
                     help="scale 0.02, short phases; under a minute")
    run.add_argument("--json", metavar="PATH",
                     help="append this run's row to PATH (input of compare)")
    cmp_parser = commands.add_parser("compare", help="apply the bounds to two runs")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare.main([args.a, args.b])
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
