"""The parent side of ``python -m perf run``.

Each pass of each workload runs in its own interpreter, in its own
process group, under a hard wall limit of three times its budget.  When
the limit expires — or the child exits and leaves workers behind — the
whole group is killed, and a workload that did not report is recorded
with ``fail_frac = 1`` instead of hanging the run.  Faults are only ever
injected through the program's own ``FaultPlan`` seam: a worker killed
from outside can leave an ``Engine`` blocked for minutes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

from . import spec
from .spec import PROCESSES, Plan

__all__ = ["run_pass", "run_all", "contract_line", "fingerprint", "print_report"]

ROOT = Path(__file__).resolve().parent.parent
HISTORY = Path(__file__).resolve().parent / "history.jsonl"

#: Seconds a pass needs on top of its measured time at full scale
#: (the set-ups, warm-up, verification, interpreter start).
OVERHEAD_S = 20.0


def budget_s(plan: Plan) -> float:
    return plan.seconds + OVERHEAD_S * max(plan.scale, 0.1)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_pass(plan: Plan) -> dict:
    """One pass of one workload in a fresh interpreter under the watchdog."""
    limit = 3.0 * budget_s(plan)
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "perf.child", json.dumps(dataclasses.asdict(plan))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    killed = False
    try:
        stdout, _ = child.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        killed = True
        _kill_group(child.pid)
        stdout, _ = child.communicate()
    finally:
        # Workers the child forked share its group; none may outlive it.
        _kill_group(child.pid)
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    report = None
    if not killed and child.returncode == 0 and lines:
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            report = None
    if report is None:
        report = dataclasses.asdict(spec.Result(plan.workload, plan.trace))
        report.update(attempted=1, failed=1, correct=False)
        report["metrics"]["fail_frac"] = {"value": 1.0, "unit": "ratio", "n": 1}
        if killed:
            report["notes"]["watchdog"] = f"killed after {limit:.0f}s"
        else:
            report["notes"]["crashed"] = f"exited with code {child.returncode}"
    report["wall_s"] = time.perf_counter() - started
    return report


def fingerprint(plan: Plan) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git": _git_state(),
        "seed": plan.seed,
        "scale": plan.scale,
        "seconds": plan.seconds,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "processes": PROCESSES,
    }


def _git_state() -> dict:
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )

    try:
        sha = git("rev-parse", "HEAD")
        if sha.returncode != 0:
            return {"sha": None, "dirty": None}
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return {"sha": sha.stdout.strip(), "dirty": bool(dirty.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}


def run_all(base: Plan, workloads, passes) -> dict:
    """Run *passes* (``"untraced"`` / ``"traced"``) of every workload;
    returns one history-shaped row."""
    row = {"ts": time.strftime("%Y-%m-%dT%H:%M:%S"), **fingerprint(base), "workloads": {}}
    for name in workloads:
        cell = row["workloads"][name] = {}
        for which in passes:
            traced = which == "traced"
            plan = dataclasses.replace(
                base, workload=name, trace=traced,
                # set-up is an end-to-end metric; the traced pass sets up once
                setups=1 if traced else base.setups,
            )
            report = run_pass(plan)
            print_report(report)
            cell[which] = report
    row["derived"] = _derived(row["workloads"])
    return row


def _value(cell, which, name):
    entry = cell.get(which, {}).get("metrics", {}).get(name)
    return None if entry is None else entry["value"]


def _speed(cell, which):
    """A pass's headline speed, higher is better: the serving workloads'
    throughput; on join-full, rounds per second of the five arm medians."""
    rate = _value(cell, which, "req_per_s")
    if rate:
        return rate
    arms = [
        _value(cell, which, metric.name)
        for metric in spec.END_TO_END if metric.workloads == (spec.JOIN,)
    ]
    return 1e3 / sum(arms) if all(arms) else None


def _derived(cells: dict) -> dict:
    """Numbers that need two passes or two workloads."""
    out = {}
    mix = _value(cells.get("serve-mix", {}), "untraced", "req_per_s")
    shard = _value(cells.get("shard-mix", {}), "untraced", "req_per_s")
    if mix and shard:
        out["shard.vs_engine"] = shard / mix
    for name, cell in cells.items():
        plain, traced = _speed(cell, "untraced"), _speed(cell, "traced")
        if plain and traced:
            out[f"bench.trace_overhead_frac@{name}"] = 1.0 - traced / plain
    return out


def print_report(report: dict) -> None:
    which = "traced" if report["trace"] else "untraced"
    print(
        f"\n== {report['workload']} ({which}, {report['wall_s']:.1f}s wall) — "
        f"attempted {report['attempted']}, failed {report['failed']}, "
        f"correct {report['correct']}"
    )
    sections = [("end-to-end", report["metrics"])]
    if report["trace"]:
        sections.append(("per-layer", report["layers"]))
    for title, metrics in sections:
        print(f"  {title}:")
        for name, entry in metrics.items():
            count = "" if entry["n"] is None else f"  n={entry['n']}"
            print(
                f"    {name:<38} {entry['value']:>14.6g} {entry['unit']:<6}{count}"
            )
    for key, note in report["notes"].items():
        print(f"  note {key}: {note}")


def append_row(path: Path, row: dict) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


def contract_line(report: dict) -> str:
    """The driver's last line: the metrics BENCHMARK.json names for this
    pass.  The driver wants every declared name from every workload, so a
    per-layer metric that ``spec`` does not define on this workload is
    reported as 0 — its layer did no work here (README, "Driver view").
    One that is defined here but was not measured (too few samples for a
    p99 in a smoke run, a killed pass) is left out: no number is not 0.
    """
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    wanted = declared["per_layer" if report["trace"] else "end_to_end"]
    measured = {**report["layers"], **report["metrics"]}
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in measured:
            value = measured[name]["value"]
        elif report["workload"] in spec.workloads_of(name):
            continue
        else:
            value = 0
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return json.dumps(
        {
            "correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics,
        }
    )
