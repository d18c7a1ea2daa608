"""Per-layer metrics of the traced pass, measured from outside.

Every number here comes from timing a call into a package's public
functions, from reading a public result object or ``snapshot()``, or from
the span recorder — nothing inside ``src/repro`` is instrumented.  Each
probe is attached to the workload whose end-to-end metric it is meant to
explain (``spec.Layer.moves``).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import resource
import time
from pathlib import Path

import numpy as np

from repro import build_tree, create_tasks, multiprocessing_join, parallel_spatial_join
from repro.geometry.rect import Rect
from repro.join.flat import create_flat_tasks
from repro.query.batch import multi_window_query
from repro.recovery.config import RecoveryConfig
from repro.rtree.query import QueryStats, nearest_neighbors, window_query
from repro.service.engine import Engine
from repro.service.workers import WorkerPool
from repro.shard import build_sharded, sharded_window
from repro.trace import ListSink

from . import inputs, serving
from .join_full import sim_config
from .oracle import pair_keys
from .spec import PACKAGES, PROCESSES
from .stats import median, percentile

__all__ = ["common_layers", "join_layers", "serving_layers", "serving_probes"]

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def timed(fn, repeats: int) -> tuple[float, object]:
    """Median seconds of *repeats* calls (collector run before each) and
    the last return value."""
    seconds, value = [], None
    for _ in range(repeats):
        value = None
        gc.collect()
        started = time.perf_counter()
        value = fn()
        seconds.append(time.perf_counter() - started)
    return median(seconds), value


def each_us(fn, args) -> float:
    """Median microseconds of ``fn(arg)`` over *args*, one call each."""
    samples = []
    for arg in args:
        started = time.perf_counter()
        fn(arg)
        samples.append(time.perf_counter() - started)
    return 1e6 * median(samples)


def _count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def common_layers(recorder, result) -> None:
    """Span-derived set-up shares, worker RSS and the tracked line counts."""
    for span, name in (
        ("datagen.paper_maps", "datagen.maps_s"),
        ("rtree.build[flat]", "rtree.flat.build_s"),
        ("rtree.build[node]", "rtree.node.build_s"),
        ("shard.build_sharded", "shard.partition.build_s"),
    ):
        durations = recorder.durations(span)
        if durations:
            result.layer(name, median(durations), len(durations))
    result.layer(
        "bench.child_rss_mb",
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    )
    total = 0
    for package in PACKAGES:
        lines = sum(_count_lines(p) for p in sorted((SRC / package).rglob("*.py")))
        result.layer(f"loc.{package}", lines)
        total += lines
    total += sum(_count_lines(p) for p in sorted(SRC.glob("*.py")))
    result.layer("loc.src", total)


# -- join-full -----------------------------------------------------------------
def _noop(_):
    return None


def _fork_pool_round_trip() -> None:
    context = multiprocessing.get_context("fork")
    with context.Pool(PROCESSES) as pool:
        pool.map(_noop, range(PROCESSES))
        pool.close()
        pool.join()


def join_layers(recorder, result, indexes, oracle, answers, times) -> None:
    flat, node = indexes.flat, indexes.node
    for backend in ("node", "flat"):
        key = f"join_seq_{backend}_ms"
        answer = answers.get(key)
        if answer is not None:
            result.layer(f"join.{backend}.node_pairs", answer.node_pairs_visited)
            result.layer(f"join.{backend}.tests", answer.intersection_tests)
        seq, par = times[key], times[f"join_par_{backend}_ms"]
        if seq and par:
            result.layer(f"join.{backend}.speedup", median(seq) / median(par))

    with recorder.span("probe.join.create_tasks"):
        seconds, _ = timed(
            lambda: create_tasks(*node, min_tasks=PROCESSES * 4), 5
        )
        result.layer("join.node.tasks_ms", 1e3 * seconds, 5)
        seconds, _ = timed(
            lambda: create_flat_tasks(*flat, min_tasks=PROCESSES * 4), 5
        )
        result.layer("join.flat.tasks_ms", 1e3 * seconds, 5)

    for processes in (1, 4):
        # p4 only where 4 processes are not more than the cores.
        if processes > 1 and (os.cpu_count() or 1) < processes:
            continue
        for backend, trees in (("node", node), ("flat", flat)):
            name = f"join.{backend}.p{processes}_ms"
            with recorder.span(f"probe.{name}"):
                seconds, pairs = timed(
                    lambda: multiprocessing_join(*trees, processes), 3
                )
            result.layer(name, 1e3 * seconds, 3)
            _expect(result, name, pairs, oracle)

    with recorder.span("probe.join.mp.fork"):
        seconds, _ = timed(_fork_pool_round_trip, 5)
        result.layer("join.mp.fork_ms", 1e3 * seconds, 5)

    with recorder.span("probe.join.mp.pickle"):
        pairs = multiprocessing_join(*flat, 1)
        blob = pickle.dumps(pairs, pickle.HIGHEST_PROTOCOL)
        result.layer("join.mp.result_bytes", len(blob))
        seconds, _ = timed(
            lambda: pickle.loads(pickle.dumps(pairs, pickle.HIGHEST_PROTOCOL)), 3
        )
        result.layer("join.mp.pickle_ms", 1e3 * seconds, 3)
        del blob, pairs

    with recorder.span("probe.recovery.ft_join"):
        seconds, pairs = timed(
            lambda: multiprocessing_join(
                *node, PROCESSES, recovery=RecoveryConfig()
            ),
            3,
        )
        result.layer("recovery.ft_join_ms", 1e3 * seconds, 3)
        _expect(result, "recovery.ft_join", pairs, oracle)

    gd8 = answers.get("sim_gd8_ms")
    with recorder.span("probe.sim.gd1"):
        gd1 = parallel_spatial_join(*node, sim_config(1), page_store=indexes.store)
    _expect(result, "sim.gd1", gd1, oracle)
    result.layer("sim.gd1.response_s", gd1.response_time)
    if gd8 is not None:
        result.layer("sim.gd8.response_s", gd8.response_time)
        result.layer("sim.gd8.speedup", gd8.speedup_against(gd1))
        result.layer("sim.gd8.disk_accesses", gd8.disk_accesses)
        result.layer("sim.gd8.buffer_hits", gd8.metrics.buffer_hits)
        result.layer("sim.gd8.reassignments", gd8.reassignments)


def _expect(result, what: str, answer, oracle) -> None:
    """A probe that returns a join answer is held to the oracle too."""
    if not np.array_equal(pair_keys(answer), oracle):
        result.correct = False
        result.notes.setdefault("probe_mismatch", []).append(what)


# -- serving --------------------------------------------------------------------
def _kind_p50_ms(samples, kind: str):
    latencies = [s.latency_s for s in samples if s.request[0] == kind]
    return (1e3 * median(latencies), len(latencies)) if latencies else None


def serving_layers(
    plan, result, targets, open_phase, open_snapshot, closed_phase,
    closed_snapshot,
) -> None:
    """Counters of the gated phases, read from their own snapshots."""
    gated = closed_snapshot or open_snapshot
    report = gated["metrics"]
    per_class = report["per_class"].values()
    result.layer("service.cache.hit_rate", gated["cache"]["hit_rate"])
    result.layer("service.engine.queue_depth_max", report["queue_depth_max"])
    result.layer("service.engine.rejected", report["rejected"])
    result.layer("service.engine.shed", report["shed"])
    result.layer("service.engine.timeouts", report["timeouts"])
    result.layer("service.engine.retries", report["retries"])
    if report["batch_sizes"]["batches"]:
        result.layer(
            "service.batcher.mean_batch", report["batch_sizes"]["mean"],
            report["batch_sizes"]["batches"],
        )

    lags = [s.lag_s for s in open_phase.samples]
    if lags:
        result.layer(
            "service.engine.open_lag_p99_ms", 1e3 * percentile(lags, 99.0), len(lags)
        )
    open_ok = [s.latency_s for s in open_phase.ok()]
    if open_ok:
        name = (
            "service.chaos.ok_p99_ms" if closed_phase is None
            else "service.engine.open_p99_ms"
        )
        result.layer(name, 1e3 * percentile(open_ok, 99.0), len(open_ok))
    if closed_phase is not None:
        for kind in ("window", "knn"):
            found = _kind_p50_ms(closed_phase.ok(), kind)
            if found:
                result.layer(f"service.{kind}_p50_ms", *found)

    if plan.workload == "serve-chaos":
        result.layer("faults.crashes_injected", gated["faults_injected"]["crashes"])
        result.layer(
            "service.supervisor.crashes_detected",
            gated["supervisor"]["crashes_detected"],
        )
        result.layer(
            "service.supervisor.pool_restarts", gated["supervisor"]["pool_restarts"]
        )
        result.layer(
            "service.breaker.opens",
            sum(b["opens"] for b in gated["breakers"].values()),
        )
        result.layer("service.pool.calls_failed", gated["pool"]["calls_failed"])

    if targets.sharded:
        shards = gated["shards"].values()
        objects = sum(len(m) for m in targets.maps)
        result.layer(
            "shard.partition.replication",
            sum(sum(s["objects"].values()) for s in shards) / objects,
        )
        routed = sum(
            c["completed"] + c["errors"] + c["timeouts"] - c["cache_hits"]
            for c in per_class
        )
        if routed:
            result.layer(
                "shard.router.fanout",
                sum(s["subrequests"] for s in shards) / routed, routed,
            )
        knn = report["per_class"].get("knn")
        if knn:
            visits = (knn["completed"] - knn["cache_hits"]) * len(shards)
            if visits:
                result.layer(
                    "shard.router.knn_skip_frac",
                    sum(s["knn_skips"] for s in shards) / visits, visits,
                )
        result.layer("shard.router.failovers", sum(s["failovers"] for s in shards))
        result.layer("shard.router.errors", sum(c["errors"] for c in per_class))


async def _closed_arm(plan, recorder, targets, requests, site, seconds, sinks=(), **overrides):
    """One short closed-loop run on a fresh engine with one knob changed."""
    engine = Engine(
        targets.trees, serving.engine_config(plan.seed, **overrides), sinks=sinks
    )
    await engine.start()
    try:
        phase = await serving.run_closed(
            engine, requests, plan, recorder, f"probe.{site}", seconds, site
        )
    finally:
        await engine.stop()
    return phase


async def serving_probes(plan, recorder, result, targets, stream) -> None:
    side = targets.maps[0].region.side
    windows = inputs.probe_windows(side, plan.seed)
    if plan.workload == "shard-mix":
        _shard_probes(recorder, result, targets, windows)
    if plan.workload != "serve-mix":
        return
    hitting = _rtree_probes(plan, recorder, result, targets, windows)

    arm_s = plan.seconds / 8.0
    # every arm is sent the same requests
    requests = serving.closed_requests(stream, "arm", arm_s)
    rates = {}
    for site, overrides in (
        ("base", {}),
        ("sink", {}),
        ("nocache", {"cache_capacity": 0}),
        ("nobatch", {"batching": False}),
        ("inline", {"workers": 0}),
    ):
        phase = await _closed_arm(
            plan, recorder, targets, requests, site, arm_s,
            sinks=(ListSink(),) if site == "sink" else (), **overrides,
        )
        rates[site] = len(phase.ok()) / phase.measured_s
        if overrides:
            result.layer(
                f"service.engine.{site}_req_per_s", rates[site], len(phase.ok())
            )
    if rates["base"]:
        result.layer(
            "trace.sink_overhead_frac", 1.0 - rates["sink"] / rates["base"]
        )
    solo = await _closed_arm(plan, recorder, targets, requests[:1], "solo", arm_s)
    latencies = [s.latency_s for s in solo.ok()]
    if latencies:
        result.layer("service.engine.solo_p50_ms", 1e3 * median(latencies), len(latencies))

    await _worker_probes(recorder, result, targets, hitting[:300])


def _rtree_probes(plan, recorder, result, targets, windows) -> list:
    """Index-op timings and exact node counters on map 1; returns the
    probe windows that hit at least one object."""
    rects = [Rect(*w) for w in windows]
    points = inputs.probe_points(targets.maps[0].region.side, plan.seed)
    batches = [rects[i:i + 16] for i in range(0, len(rects), 16)]
    with recorder.span("rtree.build[node]"):
        node = build_tree(targets.maps[0])
    flat = targets.trees["map1"]
    result.layer(
        "rtree.flat.bytes",
        sum(
            getattr(tree, name).nbytes
            for tree in targets.trees.values()
            for name in ("xmin", "ymin", "xmax", "ymax", "level_offsets")
        ),
    )
    for backend, tree in (("node", node), ("flat", flat)):
        with recorder.span(f"probe.rtree.{backend}"):
            window_query(tree, rects[0])  # first call builds the flat entry cache
            result.layer(
                f"rtree.{backend}.window_us",
                each_us(lambda r: window_query(tree, r), rects), len(rects),
            )
            result.layer(
                f"rtree.{backend}.multi16_us",
                each_us(lambda b: multi_window_query(tree, b), batches), len(batches),
            )
            result.layer(
                f"rtree.{backend}.knn10_us",
                each_us(lambda p: nearest_neighbors(tree, p[0], p[1], k=10), points),
                len(points),
            )
            nodes, rows = 0, []
            for rect in rects:
                stats = QueryStats()
                rows.append(len(window_query(tree, rect, stats)))
                nodes += stats.total_nodes
            result.layer(f"rtree.{backend}.window_nodes", nodes / len(rects), len(rects))
    # both backends return the same rows; these are the flat tree's
    result.layer("rtree.window_rows", sum(rows) / len(rects), len(rects))
    return [window for window, count in zip(windows, rows) if count]


async def _worker_probes(recorder, result, targets, windows) -> None:
    """One-rect ``WorkerPool.windows`` round trip against the same work
    done in this process: the difference is IPC + pickling.  *windows*
    all hit something — a one-window batch that misses every object trips
    the open ``multi_window`` defect (README)."""
    pool = WorkerPool(targets.trees, PROCESSES)
    pool.start()
    try:
        with recorder.span("probe.service.workers"):
            await pool.windows("map1", [windows[0]])
            samples = []
            for window in windows:
                started = time.perf_counter()
                await pool.windows("map1", [window])
                samples.append(time.perf_counter() - started)
    finally:
        await pool.close()
    result.layer("service.workers.call_us", 1e6 * median(samples), len(samples))
    tree = targets.trees["map1"]
    result.layer(
        "service.workers.exec_us",
        each_us(
            lambda w: [
                tuple(sorted(e.oid for e in entries))
                for entries in multi_window_query(tree, [Rect(*w)])
            ],
            windows,
        ),
        len(windows),
    )


def _shard_probes(recorder, result, targets, windows) -> None:
    with recorder.span("shard.build_sharded"):
        sharded = build_sharded(
            {"map1": targets.maps[0].items(), "map2": targets.maps[1].items()},
            PROCESSES, mode="grid", backend="flat",
        )
    rects = [Rect(*w) for w in windows]
    with recorder.span("probe.shard.ops"):
        sharded_window(sharded, "map1", rects[0])
        result.layer(
            "shard.ops.window_us",
            each_us(lambda r: sharded_window(sharded, "map1", r), rects), len(rects),
        )
