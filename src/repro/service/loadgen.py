"""Load generator for the serving tiers (``python -m repro.service.loadgen``).

One invocation builds one target over the synthetic paper maps — an
:class:`~repro.service.engine.Engine`, or with ``--shards K`` a
:class:`~repro.shard.router.ShardRouter` — drives it with one arrival
model of the serving literature, prints the report and keeps nothing:

* **closed loop** — ``--clients N`` clients, each issuing its next request
  the moment the previous response arrives (throughput-bound, measures
  the tier's capacity);
* **open loop** — Poisson arrivals at ``--rate R`` requests/second,
  independent of response times (latency-bound, measures behaviour under
  a fixed offered load, including admission-control rejections).

The request mix is mostly window queries (10 % kNN, ``--join-share``
joins); a quarter of the windows is drawn from a small set of popular
ones so the result cache has something to do, and ``--skew hotspot``
lands the anchors on one shard neighbourhood.  The
report is the per-class latency table and the throughput line; a sharded
run adds the per-shard sub-request / failover line, a faulted run the
faults-injected / failed-calls / worker-deaths line.

A run under a fault plan (``--crash-p`` / ``--hang-p`` / ``--slow-p``
non-zero, seeded by ``--chaos-seed``) is a **checked** run: the whole
``SVC_*``/``FLT_*``/``SUP_*``/``SHD_*`` event stream is collected and
replayed through :func:`repro.trace.service_checkers`, and a red verdict
is exit code 1.  The lost-request rule lives there and nowhere else —
the ``service-ledger`` spec's end equation ``one_outcome_each``: admitted
!= terminal outcomes after engine stop.  A healthy run carries no sink, so its throughput is clean.

This is a driver, not an instrument: what a serving number *is* comes
from ``python -m perf run`` (``serve-mix``, ``serve-chaos``,
``shard-mix``), and what must hold under faults is asserted by tier-1
(``tests/chaos``, ``tests/shard``, ``tests/recovery``).
"""

from __future__ import annotations

import argparse
import asyncio
import random
import time
from collections import Counter
from typing import Optional

from ..bench.render import heading, render_table
from ..datagen import paper_maps
from ..faults import FaultPlan
from ..geometry.rect import Rect
from ..rtree.flat import build_flat_tree
from ..trace import ListSink, run_checkers, service_checkers
from .engine import Engine, EngineConfig
from .model import JoinRequest, KNNRequest, WindowRequest

__all__ = [
    "main",
    "run_load",
    "build_trees",
    "RequestFactory",
]

#: Per-attempt deadline of a run under a fault plan: below the plan's
#: 1 s hang, so a hung call is killed and retried instead of waited out.
_FAULTED_ATTEMPT_TIMEOUT_S = 0.5


def build_trees(scale: float, seed: int):
    """The two paper maps as a named registry of packed trees for the
    engine, and the maps' region."""
    map1, map2 = paper_maps(scale=scale, seed=seed)
    trees = {"map1": build_flat_tree(map1), "map2": build_flat_tree(map2)}
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
      absorbs most of the load.

    A share or ``hot_fraction`` outside [0, 1], or kNN and join shares
    summing past 1, is a ``ValueError`` naming the argument.
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
    ):
        if skew not in ("uniform", "hotspot"):
            raise ValueError(f"unknown skew {skew!r} (expected uniform|hotspot)")
        shares = dict(
            knn_share=knn_share, join_share=join_share, hot_fraction=hot_fraction
        )
        for name, share in shares.items():
            if not 0.0 <= share <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {share!r}")
        if knn_share + join_share > 1.0:
            raise ValueError(
                f"knn_share + join_share must be <= 1, got "
                f"{knn_share!r} + {join_share!r}"
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
        if rng.random() < self.hot_fraction:
            return WindowRequest(tree, rng.choice(self.hot_windows))
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
        response = await submit(factory.make(rng))
        statuses[response.status.value] += 1

    if mode == "closed":

        async def client(index: int) -> None:
            rng = random.Random(seed * 7919 + index)
            while time.perf_counter() < deadline:
                await issue(rng)

        await asyncio.gather(*(client(i) for i in range(clients)))
    else:
        rng = random.Random(seed)
        tasks = []
        while time.perf_counter() < deadline:
            await asyncio.sleep(rng.expovariate(rate))
            tasks.append(asyncio.create_task(issue(random.Random(rng.random()))))
        if tasks:
            await asyncio.gather(*tasks)

    return submitted, statuses, time.perf_counter() - wall_start


async def run_load(
    make_target,
    factory: RequestFactory,
    *,
    duration_s: float,
    mode: str,
    clients: int,
    rate: float,
    seed: int,
    check_invariants: bool = False,
) -> dict:
    """One load-test run of either tier: build, start, :func:`_drive`,
    stop, report.  *make_target(sinks)* builds the not-yet-started tier
    (an ``Engine`` or a ``ShardRouter`` — both are one front door).

    With ``check_invariants`` the whole event stream is collected and
    replayed through :func:`repro.trace.service_checkers` (request / cache
    accounting, shard routing, the spec monitors);
    the :class:`~repro.trace.Verdict` list lands under ``"verdicts"``
    (None on an unchecked run).  ``"snapshot"`` is the stopped tier's own
    ``snapshot()``.

    Raises ``ValueError`` — before anything is built — for an unknown
    mode, a non-positive duration, a closed loop without clients or an
    open loop without a positive rate.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"unknown mode {mode!r} (closed|open)")
    if not duration_s > 0:
        raise ValueError(f"duration must be > 0 seconds, got {duration_s}")
    if mode == "closed" and clients < 1:
        raise ValueError(f"a closed loop needs >= 1 client, got {clients}")
    if mode == "open" and not rate > 0:
        raise ValueError(f"an open loop needs a rate > 0 req/s, got {rate}")
    sink = ListSink() if check_invariants else None
    target = make_target(() if sink is None else (sink,))
    await target.start()
    try:
        submitted, statuses, elapsed = await _drive(
            target.submit, factory, duration_s=duration_s, mode=mode,
            clients=clients, rate=rate, seed=seed,
        )
    finally:
        await target.stop()
    return {
        "elapsed_s": elapsed,
        "submitted": submitted,
        "statuses": dict(statuses),
        "report": target.metrics.report(elapsed),
        "snapshot": target.snapshot(),
        "verdicts": None if sink is None else run_checkers(
            sink.events, service_checkers()
        ),
    }


def _print_summary(summary: dict) -> None:
    report, snapshot = summary["report"], summary["snapshot"]
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
    cache = snapshot["cache"]
    print(
        f"\nthroughput: {report['throughput_rps']:.1f} req/s over "
        f"{summary['elapsed_s']:.2f}s   max in-flight: "
        f"{report['queue_depth_max']}   statuses: {summary['statuses']}"
    )
    print(
        f"batches: {batches['batches']} "
        f"(mean size {batches['mean'] if batches['batches'] else 0:.2f}, "
        f"max {batches['max']})   cache: {cache['hits']} hits / "
        f"{cache['misses']} misses ({100 * cache['hit_rate']:.1f}%), "
        f"{cache['evictions']} evictions"
    )
    if snapshot["shards"]:
        routed = {s: st["subrequests"] for s, st in snapshot["shards"].items()}
        hottest = max(routed, key=routed.get)
        total = sum(routed.values())
        print(
            f"per-shard sub-requests: {routed}   hottest: shard {hottest} "
            f"({100 * routed[hottest] / max(total, 1):.0f}% of {total})   "
            f"failovers: "
            f"{sum(st['failovers'] for st in snapshot['shards'].values())}"
        )
    if snapshot["faults_injected"] is not None:
        print(
            f"faults injected: {snapshot['faults_injected']}   "
            f"calls: {snapshot['pool']}   workers: {snapshot['supervisor']}"
        )


def _build_target(args, faults: Optional[FaultPlan]):
    """``(make_target, region)`` for the parsed flags: the maps and trees
    are built here, the tier itself by *make_target(sinks)*."""
    common = {
        "workers": args.workers,
        "cache_capacity": args.cache_capacity,
        "faults": faults,
    }
    if faults is not None:
        common["attempt_timeout_s"] = _FAULTED_ATTEMPT_TIMEOUT_S
    if not args.shards:
        trees, region = build_trees(args.scale, args.seed)
        config = EngineConfig(**common)
        return lambda sinks: Engine(trees, config, sinks=sinks), region

    from ..shard import ShardConfig, ShardRouter

    map1, map2 = paper_maps(scale=args.scale, seed=args.seed)
    datasets = {"map1": map1.table(), "map2": map2.table()}
    shard_config = ShardConfig(
        shards=args.shards, replicas=args.replicas, **common
    )
    return (
        lambda sinks: ShardRouter(datasets, shard_config, sinks=sinks),
        map1.region,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="Drive one serving tier (Engine, or ShardRouter with "
        "--shards K) with one arrival model and print the report.  A run "
        "under a fault plan is checked: exit 1 on a red invariant verdict.",
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
    parser.add_argument("--workers", type=int, default=2,
                        help="forked worker processes per pool (0 = threads)")
    parser.add_argument("--join-share", type=float, default=0.0)
    parser.add_argument("--skew", choices=("uniform", "hotspot"),
                        default="uniform",
                        help="spatial skew of the request anchors")
    parser.add_argument("--cache-capacity", type=int, default=1024,
                        help="0 disables the result cache")
    chaos = parser.add_argument_group(
        "fault plan (any probability > 0 makes the run a checked run)"
    )
    chaos.add_argument("--crash-p", type=float, default=0.0,
                        help="per-worker-call crash probability")
    chaos.add_argument("--hang-p", type=float, default=0.0,
                        help="per-worker-call hang probability (1 s hangs)")
    chaos.add_argument("--slow-p", type=float, default=0.0,
                        help="per-call slow-I/O probability (4x)")
    chaos.add_argument("--chaos-seed", type=int, default=1337,
                        help="fault plan seed (decisions are reproducible)")
    shard = parser.add_argument_group("sharded tier")
    shard.add_argument("--shards", type=int, default=0, metavar="K",
                       help="serve through a K-shard ShardRouter instead of "
                       "the engine")
    shard.add_argument("--replicas", type=int, default=1,
                       help="replica pools per shard")
    args = parser.parse_args(argv)

    tier = (
        f"{args.shards} shards x {args.replicas} replicas"
        if args.shards else "engine"
    )
    try:
        plan = FaultPlan(
            seed=args.chaos_seed,
            worker_crash_p=args.crash_p,
            worker_hang_p=args.hang_p,
            slow_io_p=args.slow_p,
        )
        faults = plan if plan.active else None
        print(heading(
            f"loadgen {args.mode} loop — {args.duration}s, "
            f"{tier}, workers={args.workers}"
            f", scale={args.scale}, seed={args.seed}"
            + (f", {faults!r}" if faults else "")
        ), flush=True)
        make_target, region = _build_target(args, faults)
        factory = RequestFactory(
            region, args.seed, join_share=args.join_share, skew=args.skew
        )
        summary = asyncio.run(
            run_load(
                make_target,
                factory,
                duration_s=args.duration,
                mode=args.mode,
                clients=args.clients,
                rate=args.rate,
                seed=args.seed,
                check_invariants=faults is not None,
            )
        )
    except ValueError as exc:
        parser.error(str(exc))
    _print_summary(summary)
    if summary["verdicts"] is None:
        return 0
    red = [verdict for verdict in summary["verdicts"] if not verdict.ok]
    for verdict in red:
        print(f"CHECK FAILED: {verdict.summary()}: {verdict.violations[:3]}")
    if red:
        return 1
    print(
        "checked run: all green — "
        + ", ".join(verdict.checker for verdict in summary["verdicts"])
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
