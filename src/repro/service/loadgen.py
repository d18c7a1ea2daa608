"""Load generator for the serving engine (``python -m repro.service.loadgen``).

Drives an :class:`~repro.service.engine.Engine` over the synthetic paper
maps with either arrival model of the serving literature:

* **closed loop** — ``--clients N`` clients, each issuing its next request
  the moment the previous response arrives (throughput-bound, measures
  the engine's capacity);
* **open loop** — Poisson arrivals at ``--rate R`` requests/second,
  independent of response times (latency-bound, measures behaviour under
  a fixed offered load, including admission-control rejections).

The request mix is mostly window queries (a configurable share of kNN,
optional periodic joins); a configurable *hot fraction* of requests is
drawn from a small set of popular windows so the result cache has
something to do.  The run prints a per-class latency/throughput report
and writes ``BENCH_service.json`` (via :func:`repro.bench.report_json`)
with the p50/p95/p99 latencies, throughput, admission counters, cache
counters and — with ``--compare-batching`` — the measured throughput gain
of micro-batching over the batch-size-1 baseline.

``--chaos`` turns the load test into a chaos run: the same workload is
driven twice, once healthy and once under a seeded
:class:`~repro.faults.plan.FaultPlan` (worker crashes, hangs, slow I/O),
with the full ``SVC_*``/``FLT_*``/``SUP_*`` event stream collected and
replayed through the service + resilience invariant checkers.  The run
**fails** (exit code 1) if any request is lost — submitted but never
given a terminal response — or any checker reports a violation; the
healthy-vs-faulted comparison is written to ``BENCH_chaos.json``.

``--shards K`` benchmarks the shared-nothing sharded tier
(:mod:`repro.shard`) instead of the single engine: throughput scaling
over the shard-count ladder up to K, hot-shard skew (``--skew
hotspot|zipf``) with and without per-shard replication, and a
crash-failover run that must complete every request through replica
re-dispatch; the ``SHD_*`` routing ledger is checker-verified and the
comparison lands in ``BENCH_shard.json``.

``--resume`` benchmarks the recoverable join instead of the serving
engine: the same journalled join is run healthy, under seeded task kills
(recovered throughput), and interrupted-then-resumed (journal replay
time); all three answers must equal the sequential oracle and the lease
ledger must reconcile, or the run exits 1.  The comparison is written to
``BENCH_recovery.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import random
import time
from collections import Counter
from dataclasses import asdict
from typing import Optional

from ..bench.render import heading, render_table, report_json
from ..datagen import build_tree, paper_maps
from ..faults import FaultPlan
from ..geometry.rect import Rect
from ..rtree.flat import build_flat_tree
from ..trace import ListSink, run_checkers, service_checkers
from .engine import Engine, EngineConfig
from .model import JoinRequest, KNNRequest, WindowRequest

__all__ = [
    "main",
    "run_load",
    "run_shard_load",
    "build_trees",
    "RequestFactory",
]


def build_trees(scale: float, seed: int, backend: str = "node"):
    """The two paper maps as a named-tree registry for the engine.

    ``backend="flat"`` serves the packed numpy backend instead: forked
    workers then inherit contiguous arrays (copy-on-write) rather than
    pointer trees, and every execution function dispatches transparently.
    """
    map1, map2 = paper_maps(scale=scale, seed=seed)
    if backend == "flat":
        trees = {"map1": build_flat_tree(map1), "map2": build_flat_tree(map2)}
    elif backend == "node":
        trees = {"map1": build_tree(map1), "map2": build_tree(map2)}
    else:
        raise ValueError(f"unknown backend {backend!r} (expected node|flat)")
    return trees, map1.region


class RequestFactory:
    """Seeded generator of the workload's request mix.

    ``skew`` shapes *where* the traffic lands, which only matters to the
    sharded tier (a uniform workload spreads evenly over any spatial
    partition; a skewed one concentrates on the shards owning the hot
    region):

    * ``uniform`` — query anchors drawn uniformly over the region;
    * ``hotspot`` — anchors drawn from a Gaussian around a fixed point
      (``hotspot_sigma`` of the region side), so one shard neighbourhood
      absorbs most of the load;
    * ``zipf`` — window queries drawn from the hot set with Zipf(``s``)
      popularity (rank-1 window dominates), the classic popularity skew.
    """

    def __init__(
        self,
        region,
        seed: int,
        *,
        knn_share: float = 0.1,
        join_share: float = 0.0,
        hot_fraction: float = 0.25,
        hot_set_size: int = 32,
        min_side: float = 0.02,
        max_side: float = 0.10,
        skew: str = "uniform",
        hotspot_sigma: float = 0.06,
        zipf_s: float = 1.1,
    ):
        if skew not in ("uniform", "hotspot", "zipf"):
            raise ValueError(
                f"unknown skew {skew!r} (expected uniform|hotspot|zipf)"
            )
        self.side = region.side
        self.knn_share = knn_share
        self.join_share = join_share
        self.hot_fraction = hot_fraction
        self.min_side = min_side
        self.max_side = max_side
        self.skew = skew
        self.hotspot_center = (0.31 * self.side, 0.63 * self.side)
        self.hotspot_sigma = hotspot_sigma * self.side
        weights = [1.0 / (rank + 1) ** zipf_s for rank in range(hot_set_size)]
        total = sum(weights)
        cum, acc = [], 0.0
        for w in weights:
            acc += w / total
            cum.append(acc)
        self._zipf_cum = cum
        hot_rng = random.Random(seed)
        self.hot_windows = [
            self._window(hot_rng) for _ in range(hot_set_size)
        ]

    def _point(self, rng: random.Random) -> tuple[float, float]:
        if self.skew == "hotspot":
            cx, cy = self.hotspot_center
            return (
                min(max(rng.gauss(cx, self.hotspot_sigma), 0.0), self.side),
                min(max(rng.gauss(cy, self.hotspot_sigma), 0.0), self.side),
            )
        return rng.uniform(0.0, self.side), rng.uniform(0.0, self.side)

    def _window(self, rng: random.Random) -> Rect:
        extent = rng.uniform(self.min_side, self.max_side) * self.side
        x, y = self._point(rng)
        x = min(x, self.side - extent)
        y = min(y, self.side - extent)
        return Rect(x, y, x + extent, y + extent)

    def _hot_window(self, rng: random.Random) -> Rect:
        if self.skew == "zipf":
            roll = rng.random()
            for rank, edge in enumerate(self._zipf_cum):
                if roll <= edge:
                    return self.hot_windows[rank]
        return rng.choice(self.hot_windows)

    def make(self, rng: random.Random):
        roll = rng.random()
        if roll < self.join_share:
            return JoinRequest("map1", "map2", window=self._window(rng))
        if roll < self.join_share + self.knn_share:
            x, y = self._point(rng)
            return KNNRequest(
                rng.choice(("map1", "map2")), x, y, rng.randint(1, 20)
            )
        tree = rng.choice(("map1", "map2"))
        hot_p = (
            max(self.hot_fraction, 0.8)
            if self.skew == "zipf"
            else self.hot_fraction
        )
        if rng.random() < hot_p:
            return WindowRequest(tree, self._hot_window(rng))
        return WindowRequest(tree, self._window(rng))


async def _drive(
    submit,
    factory: RequestFactory,
    *,
    duration_s: float,
    mode: str,
    clients: int,
    rate: float,
    seed: int,
    timeout_s: Optional[float],
) -> tuple[int, Counter, float]:
    """Drive *submit* (any tier's front door) with the configured
    arrival model; returns (submitted, statuses, elapsed)."""
    statuses: Counter = Counter()
    submitted = 0
    wall_start = time.perf_counter()
    deadline = wall_start + duration_s

    async def issue(rng: random.Random) -> None:
        nonlocal submitted
        submitted += 1
        response = await submit(
            factory.make(rng),
            **({} if timeout_s is None else {"timeout": timeout_s}),
        )
        statuses[response.status.value] += 1

    if mode == "closed":

        async def client(index: int) -> None:
            rng = random.Random(seed * 7919 + index)
            while time.perf_counter() < deadline:
                await issue(rng)

        await asyncio.gather(*(client(i) for i in range(clients)))
    elif mode == "open":
        rng = random.Random(seed)
        tasks = []
        while time.perf_counter() < deadline:
            await asyncio.sleep(rng.expovariate(rate))
            tasks.append(asyncio.create_task(issue(random.Random(rng.random()))))
        if tasks:
            await asyncio.gather(*tasks)
    else:
        raise ValueError(f"unknown mode {mode!r} (closed|open)")

    return submitted, statuses, time.perf_counter() - wall_start


async def _run(
    make_target, region, factory, check_invariants: bool, **drive
) -> tuple[dict, dict]:
    """One load-test run of either tier: start, :func:`_drive` (*drive*
    is its keywords), stop, report and — with ``check_invariants`` —
    replay the collected event stream through
    :func:`repro.trace.service_checkers`.  Returns ``(summary, snapshot)``;
    *make_target(sinks)* builds the not-yet-started tier."""
    factory = factory or RequestFactory(region, drive["seed"])
    sink = ListSink() if check_invariants else None
    target = make_target(() if sink is None else (sink,))
    await target.start()
    submitted, statuses, elapsed = await _drive(target.submit, factory, **drive)
    await target.stop()
    report = target.metrics.report(elapsed)
    snapshot = target.snapshot()
    closed = drive["mode"] == "closed"
    summary = {
        "mode": drive["mode"],
        "duration_s": drive["duration_s"],
        "elapsed_s": elapsed,
        "clients": drive["clients"] if closed else None,
        "offered_rate_rps": None if closed else drive["rate"],
        "submitted": submitted,
        "statuses": dict(statuses),
        # every submit() returned a terminal Response; anything else is a
        # lost request — the chaos run's headline invariant
        "lost": submitted - sum(statuses.values()),
        "report": report,
        "cache": target.cache.stats(),
        "queue_depth_max": report["queue_depth_max"],
        "resilience": {
            "supervisor": snapshot["supervisor"],
            "pool": snapshot["pool"],
            "faults_injected": snapshot["faults_injected"],
        },
        "verdicts": None if sink is None else [
            asdict(v) for v in run_checkers(sink.events, service_checkers())
        ],
    }
    return summary, snapshot


async def run_load(
    trees,
    region,
    *,
    duration_s: float,
    mode: str,
    clients: int,
    rate: float,
    seed: int,
    factory: Optional[RequestFactory] = None,
    config: Optional[EngineConfig] = None,
    timeout_s: Optional[float] = None,
    check_invariants: bool = False,
) -> dict:
    """One load-test run; returns the JSON-able summary.

    With ``check_invariants`` the whole event stream is collected and
    replayed through :func:`repro.trace.service_checkers` (request/cache
    accounting plus the resilience ledger); the verdicts land in the
    summary under ``"verdicts"``.
    """
    summary, snapshot = await _run(
        lambda sinks: Engine(trees, config or EngineConfig(), sinks=sinks),
        region, factory, check_invariants,
        duration_s=duration_s, mode=mode, clients=clients, rate=rate,
        seed=seed, timeout_s=timeout_s,
    )
    summary["resilience"]["breakers"] = snapshot["breakers"]
    return summary


async def run_shard_load(
    datasets,
    region,
    *,
    duration_s: float,
    mode: str,
    clients: int,
    rate: float,
    seed: int,
    factory: Optional[RequestFactory] = None,
    config=None,
    timeout_s: Optional[float] = None,
    check_invariants: bool = False,
) -> dict:
    """One load-test run against the sharded tier (``repro.shard``).

    The same driver and summary as :func:`run_load` — both tiers are one
    front door — plus the router's per-shard serving counters under
    ``"shards"`` (routed sub-requests, rows, failovers, kNN prunes per
    shard: the hot-shard evidence) and its ``"partition"``.
    """
    from ..shard import ShardConfig, ShardRouter

    summary, snapshot = await _run(
        lambda sinks: ShardRouter(
            datasets, config or ShardConfig(), sinks=sinks
        ),
        region, factory, check_invariants,
        duration_s=duration_s, mode=mode, clients=clients, rate=rate,
        seed=seed, timeout_s=timeout_s,
    )
    summary["partition"] = snapshot["partition"]
    summary["shards"] = snapshot["shards"]
    return summary


def _audit(name: str, summary: dict, failures: list) -> None:
    """Append to *failures* what a checked run got wrong: lost requests
    and every checker verdict that is not ok."""
    if summary["lost"]:
        failures.append(
            f"{name}: lost {summary['lost']} request(s) "
            f"(submitted but no terminal response)"
        )
    for verdict in summary["verdicts"]:
        if not verdict["ok"]:
            failures.append(
                f"{name}: checker {verdict['checker']} reported "
                f"{verdict['violation_count']} violation(s): "
                f"{verdict['violations'][:3]}"
            )


def _print_summary(summary: dict) -> None:
    report = summary["report"]
    rows = []
    for name, stats in sorted(report["per_class"].items()):
        rows.append(
            {
                "class": name,
                "completed": stats["completed"],
                "rejected": stats["rejected"],
                "timeouts": stats["timeouts"],
                "cache hits": stats["cache_hits"],
                "p50 (ms)": 1e3 * (stats["p50_s"] or 0.0),
                "p95 (ms)": 1e3 * (stats["p95_s"] or 0.0),
                "p99 (ms)": 1e3 * (stats["p99_s"] or 0.0),
            }
        )
    print(
        render_table(
            rows,
            ["class", "completed", "rejected", "timeouts", "cache hits",
             "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        )
    )
    batches = report["batch_sizes"]
    cache = summary["cache"]
    print(
        f"\nthroughput: {report['throughput_rps']:.1f} req/s over "
        f"{summary['elapsed_s']:.2f}s   max in-flight: "
        f"{summary['queue_depth_max']}"
    )
    print(
        f"batches: {batches['batches']} "
        f"(mean size {batches['mean'] if batches['batches'] else 0:.2f}, "
        f"max {batches['max']})   cache: {cache['hits']} hits / "
        f"{cache['misses']} misses ({100 * cache['hit_rate']:.1f}%), "
        f"{cache['evictions']} evictions"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="Load-test the repro.service engine and emit BENCH_service.json",
    )
    parser.add_argument("--duration", type=float, default=5.0, metavar="S")
    parser.add_argument("--mode", choices=("closed", "open"), default="closed")
    parser.add_argument("--clients", type=int, default=64,
                        help="closed-loop client count")
    parser.add_argument("--rate", type=float, default=300.0,
                        help="open-loop arrival rate (req/s)")
    parser.add_argument("--scale", type=float, default=0.02,
                        help="fraction of the paper's map sizes")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--backend",
        choices=("node", "flat"),
        default="node",
        help="index backend for the served trees (flat = packed numpy)",
    )
    parser.add_argument("--workers", type=int, default=2,
                        help="forked worker processes (0 = threads)")
    parser.add_argument("--knn-share", type=float, default=0.1)
    parser.add_argument("--join-share", type=float, default=0.0)
    parser.add_argument("--hot-fraction", type=float, default=0.25)
    parser.add_argument(
        "--skew",
        choices=("uniform", "hotspot", "zipf"),
        default="uniform",
        help="spatial/popularity skew of the request anchors",
    )
    parser.add_argument("--timeout", type=float, default=5.0)
    parser.add_argument("--max-inflight", type=int, default=128)
    parser.add_argument("--batch-window-ms", type=float, default=2.0)
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--no-batching", action="store_true")
    parser.add_argument("--cache-capacity", type=int, default=1024,
                        help="0 disables the result cache")
    parser.add_argument("--cache-ttl", type=float, default=60.0)
    parser.add_argument(
        "--compare-batching",
        action="store_true",
        help="also run the same workload with batching off (cache disabled "
        "in both runs) and report the throughput gain",
    )
    chaos = parser.add_argument_group("chaos (fault injection)")
    chaos.add_argument(
        "--chaos",
        action="store_true",
        help="run the workload healthy AND under a seeded fault plan, "
        "verify the resilience invariants, write BENCH_chaos.json "
        "(exit 1 on lost requests or checker violations)",
    )
    chaos.add_argument("--crash-p", type=float, default=0.05,
                       help="per-worker-call crash probability")
    chaos.add_argument("--hang-p", type=float, default=0.02,
                       help="per-worker-call hang probability")
    chaos.add_argument("--hang-s", type=float, default=1.0,
                       help="injected hang duration (seconds)")
    chaos.add_argument("--slow-p", type=float, default=0.10,
                       help="per-call slow-I/O probability")
    chaos.add_argument("--slow-factor", type=float, default=4.0,
                       help="slow-I/O service-time multiplier")
    chaos.add_argument("--chaos-seed", type=int, default=1337,
                       help="fault plan seed (decisions are reproducible)")
    chaos.add_argument("--attempt-timeout", type=float, default=0.5,
                       help="per-attempt execution deadline under chaos (s)")
    shard = parser.add_argument_group("sharded tier (--shards)")
    shard.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="K",
        help="benchmark the sharded tier at K shards instead of the "
        "engine: throughput scaling over the K ladder, hot-shard skew "
        "with and without replication, and a crash-failover run — "
        "writes BENCH_shard.json (exit 1 on lost requests or checker "
        "violations)",
    )
    shard.add_argument("--shard-mode", choices=("grid", "zrange"),
                       default="grid", help="spatial partitioning mode")
    shard.add_argument("--replicas", type=int, default=2,
                       help="replica pools per shard in the replicated arms")
    recovery = parser.add_argument_group("recovery (--resume)")
    recovery.add_argument(
        "--resume",
        action="store_true",
        help="benchmark the journalled fault-tolerant join: healthy vs "
        "task-kill chaos vs interrupt-then-resume, write "
        "BENCH_recovery.json (exit 1 on a wrong answer or ledger "
        "violation)",
    )
    recovery.add_argument("--kill-p", type=float, default=0.15,
                          help="per-task kill probability in the chaos arm")
    recovery.add_argument("--lease-s", type=float, default=2.0,
                          help="chunk lease deadline (seconds)")
    args = parser.parse_args(argv)

    if args.resume:
        return _recovery_main(args)
    if args.shards:
        return _shard_main(args)

    def engine_config(
        batching: bool,
        cache_capacity: int,
        faults: Optional[FaultPlan] = None,
    ) -> EngineConfig:
        return EngineConfig(
            workers=args.workers,
            max_inflight=args.max_inflight,
            default_timeout_s=args.timeout,
            batching=batching,
            batch_window_s=args.batch_window_ms / 1e3,
            max_batch=args.max_batch,
            cache_capacity=cache_capacity,
            cache_ttl_s=args.cache_ttl,
            attempt_timeout_s=args.attempt_timeout if faults else 2.0,
            faults=faults,
            seed=args.seed,
        )

    print(
        f"building workload (scale={args.scale}, seed={args.seed}) ...",
        flush=True,
    )
    trees, region = build_trees(args.scale, args.seed, backend=args.backend)
    factory = RequestFactory(
        region,
        args.seed,
        knn_share=args.knn_share,
        join_share=args.join_share,
        hot_fraction=args.hot_fraction,
        skew=args.skew,
    )

    def run(
        batching: bool,
        cache_capacity: int,
        duration: float,
        faults: Optional[FaultPlan] = None,
        check_invariants: bool = False,
    ) -> dict:
        return asyncio.run(
            run_load(
                trees,
                region,
                duration_s=duration,
                mode=args.mode,
                clients=args.clients,
                rate=args.rate,
                seed=args.seed,
                factory=factory,
                config=engine_config(batching, cache_capacity, faults),
                check_invariants=check_invariants,
            )
        )

    if args.chaos:
        return _chaos_main(args, run)

    wall_start = time.perf_counter()
    print(
        heading(
            f"loadgen {args.mode} loop — {args.duration}s, "
            f"{'batching' if not args.no_batching else 'no batching'}, "
            f"workers={args.workers}"
        )
    )
    summary = run(not args.no_batching, args.cache_capacity, args.duration)
    _print_summary(summary)

    comparison = None
    if args.compare_batching:
        # Cache off in both arms so the gain isolates the batching effect.
        half = max(1.0, args.duration / 2)
        print(heading("batching comparison (cache off)"))
        unbatched = run(False, 0, half)
        batched = run(True, 0, half)
        gain = (
            batched["report"]["throughput_rps"]
            / unbatched["report"]["throughput_rps"]
            if unbatched["report"]["throughput_rps"]
            else float("nan")
        )
        comparison = {
            "throughput_rps_unbatched": unbatched["report"]["throughput_rps"],
            "throughput_rps_batched": batched["report"]["throughput_rps"],
            "gain": gain,
            "duration_s": half,
        }
        print(
            f"batch-size-1: {comparison['throughput_rps_unbatched']:.1f} req/s"
            f"   micro-batched: {comparison['throughput_rps_batched']:.1f} "
            f"req/s   gain: {gain:.2f}x"
        )

    latency = summary["report"]["latency"]
    payload = {
        "bench": "service",
        "config": {
            "mode": args.mode,
            "duration_s": args.duration,
            "clients": args.clients,
            "rate": args.rate,
            "seed": args.seed,
            "workers": args.workers,
            "batching": not args.no_batching,
            "batch_window_ms": args.batch_window_ms,
            "max_batch": args.max_batch,
            "max_inflight": args.max_inflight,
            "timeout_s": args.timeout,
            "cache_capacity": args.cache_capacity,
            "cache_ttl_s": args.cache_ttl,
            "knn_share": args.knn_share,
            "join_share": args.join_share,
            "hot_fraction": args.hot_fraction,
        },
        "scale": args.scale,
        "wall_time_s": time.perf_counter() - wall_start,
        "latency_p50_s": latency["p50_s"],
        "latency_p95_s": latency["p95_s"],
        "latency_p99_s": latency["p99_s"],
        "throughput_rps": summary["report"]["throughput_rps"],
        "run": summary,
        "batching_comparison": comparison,
    }
    path = report_json("service", payload)
    print(f"\nwrote {path}")
    return 0


def _chaos_main(args, run) -> int:
    """The ``--chaos`` arm: healthy baseline vs seeded-fault run."""
    plan = FaultPlan(
        seed=args.chaos_seed,
        worker_crash_p=args.crash_p,
        worker_hang_p=args.hang_p,
        hang_s=args.hang_s,
        slow_io_p=args.slow_p,
        slow_io_factor=args.slow_factor,
    )
    wall_start = time.perf_counter()
    print(heading(f"chaos baseline (healthy) — {args.duration}s"))
    healthy = run(not args.no_batching, args.cache_capacity, args.duration,
                  None, True)
    _print_summary(healthy)
    print(heading(
        f"chaos run — crash_p={plan.worker_crash_p} "
        f"hang_p={plan.worker_hang_p} slow_p={plan.slow_io_p}x"
        f"{plan.slow_io_factor:g} seed={plan.seed}"
    ))
    faulted = run(not args.no_batching, args.cache_capacity, args.duration,
                  plan, True)
    _print_summary(faulted)

    failures: list[str] = []
    _audit("healthy run", healthy, failures)
    _audit("faulted run", faulted, failures)

    resilience = faulted["resilience"]
    print(
        f"\nfaults injected: {resilience['faults_injected']}   "
        f"calls: {resilience['pool']}   workers: {resilience['supervisor']}"
    )
    healthy_tp = healthy["report"]["throughput_rps"]
    faulted_tp = faulted["report"]["throughput_rps"]
    print(
        f"throughput healthy {healthy_tp:.1f} req/s -> faulted "
        f"{faulted_tp:.1f} req/s   p99 "
        f"{1e3 * healthy['report']['latency']['p99_s']:.1f}ms -> "
        f"{1e3 * faulted['report']['latency']['p99_s']:.1f}ms"
    )

    payload = {
        "bench": "chaos",
        "config": {
            "mode": args.mode,
            "duration_s": args.duration,
            "clients": args.clients,
            "rate": args.rate,
            "seed": args.seed,
            "workers": args.workers,
            "timeout_s": args.timeout,
            "attempt_timeout_s": args.attempt_timeout,
            "fault_plan": {
                "seed": plan.seed,
                "worker_crash_p": plan.worker_crash_p,
                "worker_hang_p": plan.worker_hang_p,
                "hang_s": plan.hang_s,
                "slow_io_p": plan.slow_io_p,
                "slow_io_factor": plan.slow_io_factor,
            },
        },
        "scale": args.scale,
        "wall_time_s": time.perf_counter() - wall_start,
        "healthy": healthy,
        "faulted": faulted,
        "comparison": {
            "throughput_rps_healthy": healthy_tp,
            "throughput_rps_faulted": faulted_tp,
            "throughput_retained": (
                faulted_tp / healthy_tp if healthy_tp else float("nan")
            ),
            "p99_s_healthy": healthy["report"]["latency"]["p99_s"],
            "p99_s_faulted": faulted["report"]["latency"]["p99_s"],
            "lost_healthy": healthy["lost"],
            "lost_faulted": faulted["lost"],
        },
        "failures": failures,
        "ok": not failures,
    }
    path = report_json("chaos", payload)
    print(f"\nwrote {path}")
    if failures:
        for failure in failures:
            print(f"CHAOS FAILURE: {failure}")
        return 1
    print("chaos invariants hold: no lost requests, all checkers green")
    return 0


def _shard_main(args) -> int:
    """The ``--shards K`` arm: benchmark the sharded serving tier.

    Three sections, one BENCH_shard.json:

    * **scaling** — the same uniform workload over the shard-count
      ladder up to K (throughput vs K, cache off so the fan-out is
      what's measured);
    * **skew** — a hotspot workload at K shards, unreplicated vs
      R replicas per shard: the per-shard routed counters show the hot
      shard, the replicated arm splits its load across replica pools;
    * **failover** — the workload under seeded worker crashes with
      replicas: every request must still complete (zero lost) through
      lease-expiry + replica re-dispatch, with every checker green.
    """
    from ..shard import ShardConfig

    print(
        f"building workload (scale={args.scale}, seed={args.seed}) ...",
        flush=True,
    )
    map1, map2 = paper_maps(scale=args.scale, seed=args.seed)
    datasets = {"map1": map1.table(), "map2": map2.table()}
    region = map1.region

    def shard_config(k, replicas, faults=None):
        return ShardConfig(
            shards=k,
            mode=args.shard_mode,
            replicas=replicas,
            backend=args.backend,
            workers=args.workers,
            max_inflight=args.max_inflight,
            default_timeout_s=args.timeout,
            attempt_timeout_s=args.attempt_timeout if faults else 2.0,
            cache_capacity=0,  # measure routing + fan-out, not the cache
            faults=faults,
        )

    def run_arm(k, replicas, duration, skew, faults=None):
        factory = RequestFactory(
            region,
            args.seed,
            knn_share=args.knn_share,
            join_share=args.join_share,
            hot_fraction=args.hot_fraction,
            skew=skew,
        )
        return asyncio.run(
            run_shard_load(
                datasets,
                region,
                duration_s=duration,
                mode=args.mode,
                clients=args.clients,
                rate=args.rate,
                seed=args.seed,
                factory=factory,
                config=shard_config(k, replicas, faults),
                check_invariants=True,
            )
        )

    failures: list[str] = []

    wall_start = time.perf_counter()
    section_s = max(1.0, args.duration / 3)

    ladder = sorted({1, 2, args.shards} | {args.shards // 2})
    ladder = [k for k in ladder if 1 <= k <= args.shards]
    scaling = []
    for k in ladder:
        print(heading(
            f"shard scaling — K={k} ({args.shard_mode}, "
            f"{args.backend} backend, {section_s:g}s)"
        ))
        summary = run_arm(k, 1, section_s, "uniform")
        _print_summary(summary)
        _audit(f"scaling K={k}", summary, failures)
        scaling.append({
            "shards": k,
            "throughput_rps": summary["report"]["throughput_rps"],
            "p99_s": summary["report"]["latency"]["p99_s"],
            "lost": summary["lost"],
            "per_shard": summary["shards"],
        })

    skew_mode = args.skew if args.skew != "uniform" else "hotspot"
    replicas = max(2, args.replicas)
    skew_arms = {}
    for label, r in (("unreplicated", 1), ("replicated", replicas)):
        print(heading(
            f"hot-shard skew — {skew_mode}, K={args.shards}, "
            f"replicas={r} ({section_s:g}s)"
        ))
        summary = run_arm(args.shards, r, section_s, skew_mode)
        _print_summary(summary)
        _audit(f"skew {label}", summary, failures)
        routed = {
            s: stats["subrequests"]
            for s, stats in summary["shards"].items()
        }
        hottest = max(routed, key=routed.get) if routed else None
        total_routed = sum(routed.values())
        print(
            f"per-shard sub-requests: {routed}   hottest: shard {hottest} "
            f"({100 * routed[hottest] / total_routed:.0f}% of "
            f"{total_routed})" if total_routed else "no sub-requests routed"
        )
        skew_arms[label] = {
            "replicas": r,
            "skew": skew_mode,
            "throughput_rps": summary["report"]["throughput_rps"],
            "p99_s": summary["report"]["latency"]["p99_s"],
            "per_shard_subrequests": routed,
            "hottest_shard": hottest,
            "hottest_share": (
                routed[hottest] / total_routed if total_routed else None
            ),
            "lost": summary["lost"],
        }

    plan = FaultPlan(seed=args.chaos_seed, worker_crash_p=args.crash_p)
    print(heading(
        f"failover — crash_p={plan.worker_crash_p}, K={args.shards}, "
        f"replicas={replicas}, seed={plan.seed} ({section_s:g}s)"
    ))
    faulted = run_arm(args.shards, replicas, section_s, "uniform", plan)
    _print_summary(faulted)
    _audit("failover", faulted, failures)
    failovers = sum(s["failovers"] for s in faulted["shards"].values())
    resilience = faulted["resilience"]
    print(f"failovers: {failovers}   faults: {resilience['faults_injected']}")

    payload = {
        "bench": "shard",
        "config": {
            "mode": args.mode,
            "duration_s": args.duration,
            "clients": args.clients,
            "rate": args.rate,
            "seed": args.seed,
            "workers": args.workers,
            "backend": args.backend,
            "shards": args.shards,
            "shard_mode": args.shard_mode,
            "replicas": replicas,
            "skew": skew_mode,
            "crash_p": plan.worker_crash_p,
            "chaos_seed": plan.seed,
            "knn_share": args.knn_share,
            "join_share": args.join_share,
        },
        "scale": args.scale,
        "wall_time_s": time.perf_counter() - wall_start,
        "scaling": scaling,
        "skew": skew_arms,
        "failover": {
            "crash_p": plan.worker_crash_p,
            "throughput_rps": faulted["report"]["throughput_rps"],
            "lost": faulted["lost"],
            "failovers": failovers,
            "resilience": resilience,
            "statuses": faulted["statuses"],
        },
        "failures": failures,
        "ok": not failures,
    }
    path = report_json("shard", payload)
    print(f"\nwrote {path}")
    if failures:
        for failure in failures:
            print(f"SHARD FAILURE: {failure}")
        return 1
    print(
        "shard invariants hold: no lost requests, routing/service "
        "checkers green across every arm"
    )
    return 0


def _recovery_main(args) -> int:
    """The ``--resume`` arm: benchmark the journalled fault-tolerant join.

    Three runs of the same join: healthy (baseline throughput), under
    seeded task kills (recovered throughput — every killed chunk is
    redispatched) and interrupted-then-resumed (replay time — committed
    chunks come back from the journal, only orphans re-run).
    """
    import tempfile

    from ..join import sequential_join
    from ..join.parallel import prepare_trees
    from ..recovery import (
        JoinInterrupted,
        RecoveryConfig,
        resume_join,
        run_recoverable_join,
    )
    from ..trace import ListSink, Tracer, recovery_checkers, run_checkers

    processes = max(2, args.workers)
    print(
        f"building workload (scale={args.scale}, seed={args.seed}) ...",
        flush=True,
    )
    map1, map2 = paper_maps(scale=args.scale, seed=args.seed)
    tree_r, tree_s = build_tree(map1), build_tree(map2)
    prepare_trees(tree_r, tree_s)
    oracle = sorted(sequential_join(tree_r, tree_s).pairs)

    def config(journal, **extra):
        return RecoveryConfig(
            lease_s=args.lease_s,
            heartbeat_s=args.lease_s / 4,
            sweep_s=0.05,
            journal_path=journal,
            **extra,
        )

    failures: list[str] = []
    wall_start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="loadgen-recovery-") as tmp:
        print(heading(f"recoverable join — healthy ({processes} workers)"))
        t0 = time.perf_counter()
        healthy = run_recoverable_join(
            tree_r, tree_s, journal_path=f"{tmp}/healthy.jnl",
            processes=processes, recovery=config(f"{tmp}/healthy.jnl"),
        )
        healthy_s = time.perf_counter() - t0
        print(
            f"{len(healthy.pairs)} pairs in {healthy_s:.2f}s "
            f"({healthy.stats['chunks']} chunks)"
        )
        if sorted(healthy.pairs) != oracle:
            failures.append("healthy run diverged from the sequential oracle")

        plan = FaultPlan(seed=args.chaos_seed, task_kill_p=args.kill_p)
        print(heading(
            f"recoverable join — task-kill chaos "
            f"(kill_p={args.kill_p}, seed={args.chaos_seed})"
        ))
        sink = ListSink()
        t0 = time.perf_counter()
        chaos = run_recoverable_join(
            tree_r, tree_s, journal_path=f"{tmp}/chaos.jnl",
            processes=processes, recovery=config(f"{tmp}/chaos.jnl"),
            faults=plan, tracer=Tracer(sinks=[sink]),
        )
        chaos_s = time.perf_counter() - t0
        kills = chaos.stats.get("fault_counts", {}).get("task_kills", 0)
        print(
            f"{len(chaos.pairs)} pairs in {chaos_s:.2f}s — {kills} worker "
            f"kill(s), {chaos.stats['redispatches']} redispatch(es)"
        )
        if sorted(chaos.pairs) != oracle:
            failures.append("chaos run diverged from the sequential oracle")
        for verdict in run_checkers(sink.events, recovery_checkers()):
            if not verdict.ok:
                failures.append(
                    f"chaos run: checker {verdict.checker} reported "
                    f"{verdict.violation_count} violation(s): "
                    f"{verdict.violations[:3]}"
                )

        stop_after = max(1, healthy.stats["chunks"] // 2)
        print(heading(
            f"recoverable join — interrupt after {stop_after} "
            f"commit(s), then resume"
        ))
        journal = f"{tmp}/resume.jnl"
        try:
            run_recoverable_join(
                tree_r, tree_s, journal_path=journal, processes=processes,
                recovery=config(journal, stop_after_commits=stop_after),
            )
            failures.append("stop_after_commits never interrupted the join")
            replay_s = float("nan")
            resumed = healthy
        except JoinInterrupted as exc:
            print(f"interrupted: {exc}")
            t0 = time.perf_counter()
            resumed = resume_join(
                journal, tree_r, tree_s, processes=processes,
                recovery=config(journal),
            )
            replay_s = time.perf_counter() - t0
            print(
                f"resumed in {replay_s:.2f}s — {resumed.replayed_chunks} "
                f"chunk(s) replayed from the journal, "
                f"{resumed.rerun_chunks} re-run"
            )
            if sorted(resumed.pairs) != oracle:
                failures.append(
                    "resumed run diverged from the sequential oracle"
                )
            if not resumed.complete:
                failures.append("resumed run did not cover every chunk")
            if resumed.replayed_chunks < stop_after:
                failures.append(
                    f"resume replayed {resumed.replayed_chunks} chunk(s) "
                    f"but {stop_after} were committed before the interrupt"
                )

    payload = {
        "bench": "recovery",
        "config": {
            "scale": args.scale,
            "seed": args.seed,
            "processes": processes,
            "lease_s": args.lease_s,
            "kill_p": args.kill_p,
            "chaos_seed": args.chaos_seed,
        },
        "oracle_pairs": len(oracle),
        "wall_time_s": time.perf_counter() - wall_start,
        "healthy": {
            "time_s": healthy_s,
            "throughput_pairs_per_s": (
                len(healthy.pairs) / healthy_s if healthy_s else float("nan")
            ),
            "stats": healthy.stats,
        },
        "chaos": {
            "time_s": chaos_s,
            "recovered_throughput_pairs_per_s": (
                len(chaos.pairs) / chaos_s if chaos_s else float("nan")
            ),
            "throughput_retained": (
                healthy_s / chaos_s if chaos_s else float("nan")
            ),
            "task_kills": kills,
            "stats": chaos.stats,
        },
        "resume": {
            "stop_after_commits": stop_after,
            "replay_time_s": replay_s,
            "replayed_chunks": resumed.replayed_chunks,
            "rerun_chunks": resumed.rerun_chunks,
            "stats": resumed.stats,
        },
        "failures": failures,
        "ok": not failures,
    }
    path = report_json("recovery", payload)
    print(f"\nwrote {path}")
    if failures:
        for failure in failures:
            print(f"RECOVERY FAILURE: {failure}")
        return 1
    print(
        "recovery invariants hold: exact answers, ledger reconciled, "
        "resume replayed every committed chunk"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
