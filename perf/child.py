"""One workload in a fresh interpreter: ``python -m perf.child '<plan json>'``.

The runner starts this module in its own process group under a hard
watchdog.  It runs exactly one pass (untraced or traced) of one workload
and prints the :class:`~perf.spec.Result` as JSON on its last line.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys

from .spec import WORKLOADS, Plan, Result

#: Span files, relative to the repository root the runner starts us in.
OUT_DIR = "perf/out"


def main(argv) -> int:
    plan = Plan(**json.loads(argv[0]))
    if plan.workload not in WORKLOADS:
        print(f"unknown workload {plan.workload!r}", file=sys.stderr)
        return 2
    from . import join_full, probes, serving, spans

    recorder = spans.Recorder() if plan.trace else spans.NULL
    result = Result(plan.workload, plan.trace)
    workload = join_full if plan.workload == "join-full" else serving
    with recorder.span(f"workload.{plan.workload}"):
        workload.run(plan, recorder, result)
    result.e2e(
        "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if result.attempted:
        result.e2e("fail_frac", result.failed / result.attempted, result.attempted)
    if plan.trace:
        probes.common_layers(recorder, result)
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.write(os.path.join(OUT_DIR, f"trace-{plan.workload}.jsonl"))
    print(json.dumps(dataclasses.asdict(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
