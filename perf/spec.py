"""The benchmark's fixed vocabulary: workloads, metrics, bounds.

``BENCHMARK.json`` at the repository root is the driver-facing projection
of this file (its schema has no room for per-workload applicability or
for the layer → end-to-end map); ``perf/tests/test_perf_spec.py`` keeps the
two consistent.  Names are fixed — later issues cite them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "WORKLOADS", "DRIVER_WORKLOADS", "END_TO_END", "LAYER", "EndToEnd", "Layer", "Plan",
    "Result", "workloads_of", "bound_for", "driver_bound",
    "PACKAGES", "PROCESSES",
]

JOIN, MIX, CHAOS, SHARD = "join-full", "serve-mix", "serve-chaos", "shard-mix"
ALL = (JOIN, MIX, CHAOS, SHARD)
SERVING = (MIX, CHAOS, SHARD)

#: name -> one-sentence reason (the ``why`` of BENCHMARK.json).
WORKLOADS = {
    JOIN: (
        "the paper's batch job at full scale, five arms interleaved: kernels, "
        "index traversal, join drivers and the simulator do all the work, "
        "service and shard none"
    ),
    MIX: (
        "90% window / 10% kNN through Engine over the flat trees, open loop "
        "600 req/s then 16 closed-loop clients: per-request engine overhead "
        "dominates, kernels are a small share"
    ),
    CHAOS: (
        "the serve-mix stream, open loop 600 req/s, under crash-only "
        "FaultPlan(seed=1337, worker_crash_p=0.02): the resilience path that "
        "is idle on serve-mix does the work"
    ),
    SHARD: (
        "the identical stream, phases and rates as serve-mix through a "
        "2-shard ShardRouter: router fan-out, per-shard pools, merge and "
        "lease bookkeeping do the extra work"
    ),
}

#: The workloads BENCHMARK.json names.  The driver wants workloads on which
#: no operation fails and whose failure count repeats from run to run; on
#: ``serve-chaos`` failing requests are what is measured (55–64 % of them,
#: a few points apart between runs), so it is run and gated by ``python -m
#: perf run`` / ``compare`` only.
DRIVER_WORKLOADS = (JOIN, MIX, SHARD)

#: Real processes everywhere — forked join arms, engine workers, shards
#: (<= nproc on the 2-core box); recorded in the machine fingerprint.
PROCESSES = 2

#: The 16 packages under src/repro whose line counts are tracked.
PACKAGES = (
    "analysis", "bench", "buffer", "datagen", "faults", "geometry", "join",
    "query", "recovery", "rtree", "service", "shard", "sim", "storage",
    "trace", "zorder",
)


@dataclass(frozen=True)
class EndToEnd:
    """One gated end-to-end metric.

    ``bound`` is the share of the baseline's median by which the metric
    may worsen (``absolute``: an absolute amount instead) before
    ``compare`` calls it a regression; ``bound_on`` overrides it per
    workload.  ``workloads`` lists the rows the metric exists on — an
    absent cell is never read as zero.
    """

    name: str
    unit: str
    better: str
    bound: float
    workloads: tuple
    definition: str
    absolute: bool = False
    bound_on: dict = field(default_factory=dict)


# Bounds: the issue's, where this box's run-to-run quartile distance stays
# below them; otherwise 25 %, the widest the driver allows (README, "Measured
# noise floor").  BENCHMARK.json carries driver_bound() of the metrics the
# driver gates — this table is the one source.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, ALL,
             "paper_maps + every index/partition build + engine/router "
             "start(): everything before the first timed op (median of the "
             "run's set-ups)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, ALL,
             "ru_maxrss of the workload's own process at its end",
             bound_on={JOIN: 0.25}),
    EndToEnd("fail_frac", "ratio", "lower", 0.005, ALL,
             "failed / attempted: any non-ok status, any raised or "
             "watchdog-killed op, any verified answer that differs from the "
             "oracle", absolute=True, bound_on={CHAOS: 0.05}),
    EndToEnd("join_seq_flat_ms", "ms", "lower", 0.25, (JOIN,),
             "median of sequential_join(flat1, flat2)"),
    EndToEnd("join_par_flat_ms", "ms", "lower", 0.25, (JOIN,),
             "median of multiprocessing_join(flat1, flat2, 2)"),
    EndToEnd("join_seq_node_ms", "ms", "lower", 0.25, (JOIN,),
             "median of sequential_join(node1, node2)"),
    EndToEnd("join_par_node_ms", "ms", "lower", 0.25, (JOIN,),
             "median of multiprocessing_join(node1, node2, 2)"),
    EndToEnd("sim_gd8_ms", "ms", "lower", 0.25, (JOIN,),
             "median wall time of the simulated GD run (8 processors, 8 "
             "disks, 800 pages)"),
    EndToEnd("req_per_s", "1/s", "higher", 0.15, SERVING,
             "completed-ok requests per measured second: the closed-loop "
             "phase on serve-mix / shard-mix, ok replies at offered 600/s on "
             "serve-chaos", bound_on={SHARD: 0.25}),
    EndToEnd("p50_ms", "ms", "lower", 0.20, (MIX, SHARD),
             "closed-loop median latency"),
    EndToEnd("p99_ms", "ms", "lower", 0.25, (MIX, SHARD),
             "closed-loop p99"),
    EndToEnd("open_p50_ms", "ms", "lower", 0.10, (MIX, SHARD),
             "open-loop median latency from the due time",
             bound_on={SHARD: 0.25}),
)


@dataclass(frozen=True)
class Layer:
    """One per-layer metric of the traced pass.

    ``moves`` names the end-to-end metric (and workload) it should move;
    ``exact`` marks seed-determined counters, where any change at all is
    a behaviour change and is listed by ``compare``.
    """

    name: str
    unit: str
    better: str
    workloads: tuple
    moves: str
    exact: bool = False


def _layers() -> tuple:
    rows = [
        Layer("datagen.maps_s", "s", "lower", ALL, "setup_s everywhere"),
        Layer("rtree.flat.build_s", "s", "lower", (JOIN, MIX, CHAOS), "setup_s"),
        Layer("rtree.node.build_s", "s", "lower", (JOIN, MIX), "setup_s@join-full"),
        Layer("rtree.flat.bytes", "B", "lower", (MIX,), "peak_rss_mb", True),
    ]
    for what, unit, moves in (
        ("window_us", "us", "open_p50_ms@serve-mix"),
        ("multi16_us", "us", "req_per_s,p50_ms@serve-mix,shard-mix"),
        ("knn10_us", "us", "req_per_s@serve-mix"),
    ):
        for backend in ("node", "flat"):
            rows.append(Layer(f"rtree.{backend}.{what}", unit, "lower", (MIX,), moves))
    rows += [
        Layer("rtree.node.window_nodes", "count", "lower", (MIX,),
              "rtree.node.window_us", True),
        Layer("rtree.flat.window_nodes", "count", "lower", (MIX,),
              "rtree.flat.window_us", True),
        Layer("rtree.window_rows", "count", "lower", (MIX,),
              "nodes read per row returned", True),
        Layer("join.pairs", "count", "higher", (JOIN,),
              "the input's join size; numbers compare only at equal seed", True),
    ]
    for backend in ("node", "flat"):
        rows += [
            Layer(f"join.{backend}.node_pairs", "count", "lower", (JOIN,),
                  f"join_seq_{backend}_ms (fewer tests)", True),
            Layer(f"join.{backend}.tests", "count", "lower", (JOIN,),
                  f"join_seq_{backend}_ms (fewer tests)", True),
            Layer(f"join.{backend}.tasks_ms", "ms", "lower", (JOIN,),
                  f"join_par_{backend}_ms (serial prefix)"),
            Layer(f"join.{backend}.p1_ms", "ms", "lower", (JOIN,),
                  f"join_par_{backend}_ms (task path without fork)"),
            Layer(f"join.{backend}.p4_ms", "ms", "lower", (JOIN,),
                  "measured only when nproc >= 4; not in BENCHMARK.json"),
            Layer(f"join.{backend}.speedup", "ratio", "higher", (JOIN,),
                  "derived seq/par at p=2; ungated on purpose"),
        ]
    rows += [
        Layer("join.mp.fork_ms", "ms", "lower", (JOIN,),
              "join_par_*_ms (fixed cost)"),
        Layer("join.mp.result_bytes", "B", "lower", (JOIN,),
              "join_par_*_ms (per-pair cost)", True),
        Layer("join.mp.pickle_ms", "ms", "lower", (JOIN,),
              "join_par_*_ms (per-pair cost)"),
        Layer("recovery.ft_join_ms", "ms", "lower", (JOIN,),
              "against join_par_node_ms: what leases + ledger cost"),
        Layer("sim.gd1.response_s", "s", "lower", (JOIN,), "fidelity constant", True),
        Layer("sim.gd8.response_s", "s", "lower", (JOIN,), "fidelity constant", True),
        Layer("sim.gd8.speedup", "ratio", "higher", (JOIN,), "fidelity constant", True),
        Layer("sim.gd8.disk_accesses", "count", "lower", (JOIN,),
              "fidelity constant", True),
        Layer("sim.gd8.buffer_hits", "count", "higher", (JOIN,),
              "fidelity constant", True),
        Layer("sim.gd8.reassignments", "count", "lower", (JOIN,),
              "fidelity constant", True),
    ]
    served = "req_per_s,p50_ms,fail_frac@serve-mix"
    rows += [
        Layer("service.cache.hit_rate", "ratio", "higher", SERVING, served),
        Layer("service.batcher.mean_batch", "count", "higher", (MIX, CHAOS), served),
        Layer("service.engine.queue_depth_max", "count", "lower", SERVING, served),
        Layer("service.engine.rejected", "count", "lower", SERVING, served),
        Layer("service.engine.shed", "count", "lower", SERVING, served),
        Layer("service.engine.timeouts", "count", "lower", SERVING, served),
        Layer("service.engine.retries", "count", "lower", SERVING, served),
        Layer("service.window_p50_ms", "ms", "lower", (MIX, SHARD), served),
        Layer("service.knn_p50_ms", "ms", "lower", (MIX, SHARD), served),
        Layer("service.engine.nocache_req_per_s", "1/s", "higher", (MIX,),
              "bypass arm: a cache change must leave it flat"),
        Layer("service.engine.nobatch_req_per_s", "1/s", "higher", (MIX,),
              "bypass arm: a batcher change must leave it flat"),
        Layer("service.engine.inline_req_per_s", "1/s", "higher", (MIX,),
              "bypass arm: a pool/IPC change must leave it flat"),
        Layer("service.engine.solo_p50_ms", "ms", "lower", (MIX,),
              "open_p50_ms (exposes the batch-window wait)"),
        Layer("service.workers.call_us", "us", "lower", (MIX,),
              "p50_ms (minus exec_us = IPC + pickle)"),
        Layer("service.workers.exec_us", "us", "lower", (MIX,), "p50_ms"),
        Layer("service.engine.open_p99_ms", "ms", "lower", (MIX, SHARD),
              "ungated tail"),
        Layer("service.engine.open_lag_p99_ms", "ms", "lower", SERVING,
              "generator lag; ungated"),
        Layer("faults.crashes_injected", "count", "lower", (CHAOS,),
              "req_per_s,fail_frac@serve-chaos"),
        Layer("service.supervisor.crashes_detected", "count", "higher", (CHAOS,),
              "req_per_s,fail_frac@serve-chaos"),
        Layer("service.supervisor.pool_restarts", "count", "lower", (CHAOS,),
              "req_per_s,fail_frac@serve-chaos"),
        Layer("service.breaker.opens", "count", "lower", (CHAOS,),
              "req_per_s,fail_frac@serve-chaos"),
        Layer("service.pool.calls_failed", "count", "lower", (CHAOS,),
              "req_per_s,fail_frac@serve-chaos"),
        Layer("service.chaos.ok_p99_ms", "ms", "lower", (CHAOS,),
              "ungated: chaos latency tails do not repeat"),
        Layer("trace.sink_overhead_frac", "ratio", "lower", (MIX,),
              "req_per_s@serve-mix (aim 4's 5% budget)"),
        Layer("shard.partition.build_s", "s", "lower", (SHARD,),
              "setup_s,peak_rss_mb@shard-mix"),
        Layer("shard.partition.replication", "ratio", "lower", (SHARD,),
              "setup_s,peak_rss_mb@shard-mix", True),
        Layer("shard.router.fanout", "ratio", "lower", (SHARD,),
              "req_per_s,fail_frac@shard-mix"),
        Layer("shard.router.knn_skip_frac", "ratio", "higher", (SHARD,),
              "req_per_s@shard-mix"),
        Layer("shard.router.failovers", "count", "lower", (SHARD,),
              "fail_frac@shard-mix"),
        Layer("shard.router.errors", "count", "lower", (SHARD,),
              "fail_frac@shard-mix"),
        Layer("shard.ops.window_us", "us", "lower", (SHARD,),
              "against rtree.flat.window_us: routing + merge without pools"),
        Layer("bench.child_rss_mb", "MB", "lower", ALL,
              "peak RSS of the largest forked worker"),
        Layer("loc.src", "count", "lower", ALL, "aim 2's tracked number", True),
    ]
    rows += [
        Layer(f"loc.{package}", "count", "lower", ALL, "aim 2", True)
        for package in PACKAGES
    ]
    return tuple(rows)


LAYER = _layers()

_E2E = {m.name: m for m in END_TO_END}
_LAYER = {m.name: m for m in LAYER}


def workloads_of(name: str) -> tuple:
    """The workloads whose rows carry metric *name*."""
    return (_E2E.get(name) or _LAYER[name]).workloads


def bound_for(name: str, workload: str) -> tuple[float, bool]:
    """``(bound, absolute)`` of an end-to-end metric on *workload*."""
    metric = _E2E[name]
    return metric.bound_on.get(workload, metric.bound), metric.absolute


def driver_bound(name: str) -> float:
    """The one bound BENCHMARK.json can hold for a metric the driver
    gates: the loosest of its per-workload bounds."""
    metric = _E2E[name]
    return max([metric.bound, *metric.bound_on.values()])


@dataclass
class Plan:
    """What one workload process is asked to do."""

    workload: str
    #: The one seed: ``paper_maps``, the request stream, the arrival
    #: schedule, the probe queries and the verification samples all draw
    #: from it.  Join size swings 50x across seeds (15,094 pairs at 7,
    #: 147,862 at 42, 721,886 at 3), so numbers compare only at equal
    #: seed; ``join.pairs`` is recorded.  42 is the seed ``datagen`` is
    #: calibrated for.
    seed: int = 42
    scale: float = 1.0
    #: Measured seconds (split over a serving workload's two phases);
    #: the default is the driver's ``run_seconds``.
    seconds: float = 20.0
    trace: bool = False
    #: Times the set-up is repeated; ``setup_s`` is their median.
    setups: int = 2

    @property
    def measured_seconds(self) -> float:
        """Seconds the gated phases measure: the traced pass gives half
        its time to the layer probes."""
        return self.seconds / 2.0 if self.trace else self.seconds

    # Join rounds scale with the time by the same factor as the phases:
    # 2 warm-up + at least 10 measured at the default 40 s.
    @property
    def warmup_rounds(self) -> int:
        return max(1, round(self.seconds / 20.0))

    @property
    def min_rounds(self) -> int:
        return max(3, round(self.measured_seconds / 4.0))


@dataclass
class Result:
    """What one workload process reports back (JSON on its last line)."""

    workload: str
    trace: bool
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def e2e(self, name: str, value: float, n: Optional[int] = None) -> None:
        self.metrics[name] = {"value": value, "unit": _E2E[name].unit, "n": n}

    def layer(self, name: str, value: float, n: Optional[int] = None) -> None:
        self.layers[name] = {"value": value, "unit": _LAYER[name].unit, "n": n}

    def note_statuses(self, phases) -> None:
        self.notes["statuses"] = dict(
            Counter(sample.status for phase in phases for sample in phase.samples)
        )
