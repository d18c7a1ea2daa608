"""The three serving workloads: ``serve-mix``, ``serve-chaos``, ``shard-mix``.

All three drive the identical seeded request stream (``inputs.
RequestStream``) through ``submit`` of a freshly started target — an
``Engine`` over the two flat trees, the same engine under a crash-only
``FaultPlan``, or a two-shard ``ShardRouter``.  ``serve-mix`` and
``shard-mix`` run an open-loop phase (Poisson 600 req/s, latency from the
due time) and then a closed-loop phase (16 clients = ``max_batch``, so a
micro-batch can fill); ``serve-chaos`` is open loop only, because in a
closed loop instantly-shed replies make the clients spin and inflate both
the throughput and the failure count.

A seeded 1-in-50 sample of ``(request, value)`` is kept and checked
against the brute-force oracle *after* the timed window.

Every request is drawn before its phase starts, so the load loop only
sends: the stream screens its windows against the target's own trees
(``_Targets.finds_something``), and that must not cost the timed loop
anything.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time

from repro import paper_maps
from repro.faults import FaultPlan
from repro.geometry.rect import Rect
from repro.rtree.flat import build_flat_tree
from repro.service.engine import Engine, EngineConfig
from repro.service.model import KNNRequest, WindowRequest
from repro.shard import ShardConfig, ShardRouter

from . import loadloop
from .inputs import RequestStream, poisson_schedule
from .oracle import MapOracle
from .spec import PROCESSES
from .stats import median, percentile, tail_percentile

__all__ = [
    "run", "OPEN_RATE", "CLIENTS", "build_request", "engine_config",
    "closed_requests", "run_closed",
]

#: Open-loop offered rate (req/s): about a quarter of the closed-loop
#: capacity of the single engine at full scale.
OPEN_RATE = 600.0
#: Closed-loop clients: the engine's ``max_batch``.
CLIENTS = 16
#: Share of a phase's measured time spent warming up beforehand.
WARMUP_SHARE = 0.15
#: Closed-loop requests are drawn beforehand for this many a second (today
#: 1.5–2.4 thousand are sent), and never fewer than CLOSED_DRAWN_MIN a
#: client; a client that reaches the end of its list starts it over, long
#: after the 1,024-entry result cache has dropped those requests.
CLOSED_DRAWN_PER_S = 3000.0
CLOSED_DRAWN_MIN = 2048

CHAOS_PLAN = FaultPlan(seed=1337, worker_crash_p=0.02)


def engine_config(seed: int, **overrides) -> EngineConfig:
    return EngineConfig(
        **{"workers": PROCESSES, "max_inflight": 1024, "seed": seed, **overrides}
    )


def build_request(request: tuple):
    if request[0] == "window":
        return WindowRequest(request[1], Rect(*request[2]))
    _kind, tree, x, y, k = request
    return KNNRequest(tree, x, y, k)


def make_issue(target, recorder, span_name: str):
    """The load loops' ``issue``: one ``submit`` (one span when traced)."""
    submit = target.submit

    async def issue(index: int, request: tuple):
        response = await submit(build_request(request))
        return response.status.value, response.value

    async def traced(index: int, request: tuple):
        with recorder.span(span_name, rid=index):
            response = await submit(build_request(request))
        return response.status.value, response.value

    return traced if recorder.enabled else issue


class _Targets:
    """How one workload builds its maps, indexes and serving target."""

    def __init__(self, plan, recorder):
        self.plan = plan
        self.recorder = recorder
        self.sharded = plan.workload == "shard-mix"
        #: Span prefix of the target's calls: ``<kind>.start/submit/stop``.
        self.kind = "ShardRouter" if self.sharded else "Engine"
        self.maps = None
        self.trees = None
        #: The router's ``ShardedDataset`` (the same for every router made
        #: from these maps).
        self.sharded_data = None

    def finds_something(self, tree: str, window: tuple) -> bool:
        """Whether *window* finds an object in every tree the target runs
        it on: the map's tree, or the tree of each shard it is routed to.
        ``FlatRTree.multi_window`` raises when every window of a batch
        finds nothing (README, "Open defect"), so the stream leaves such
        windows out.  ``window_indices`` is the one-window kernel, which
        has no such defect and leaves the trees' entry caches alone."""
        rect = Rect(*window)
        if self.sharded:
            data = self.sharded_data
            trees = [
                data.trees[shard][tree] for shard in data.routed_shards(tree, rect)
            ]
        else:
            trees = [self.trees[tree]]
        return all(len(found.window_indices(rect)) for found in trees)

    def load(self) -> None:
        """Maps plus whatever the target is built over; part of set-up."""
        rec = self.recorder
        with rec.span("datagen.paper_maps"):
            self.maps = paper_maps(scale=self.plan.scale, seed=self.plan.seed)
        if not self.sharded:
            with rec.span("rtree.build[flat]"):
                self.trees = {
                    "map1": build_flat_tree(self.maps[0]),
                    "map2": build_flat_tree(self.maps[1]),
                }

    def make(self):
        """A fresh, not yet started target."""
        if self.sharded:
            with self.recorder.span("shard.build_sharded"):
                router = ShardRouter.from_maps(
                    {"map1": self.maps[0], "map2": self.maps[1]},
                    ShardConfig(
                        shards=PROCESSES, replicas=1, backend="flat", workers=1,
                        max_inflight=1024,
                    ),
                )
            self.sharded_data = router.sharded
            return router
        overrides = {}
        if self.plan.workload == "serve-chaos":
            overrides = {"faults": CHAOS_PLAN, "attempt_timeout_s": 0.5}
        return Engine(self.trees, engine_config(self.plan.seed, **overrides))

    async def setup(self):
        """Everything before the first timed request; returns the started
        target and the seconds it took."""
        started = time.perf_counter()
        with self.recorder.span("setup"):
            self.load()
            target = self.make()
            with self.recorder.span(f"{self.kind}.start"):
                await target.start()
        return target, time.perf_counter() - started


async def _stop(target, recorder, kind: str) -> dict:
    snapshot = target.snapshot()
    with recorder.span(f"{kind}.stop"):
        await target.stop()
    return snapshot


async def run_open(target, stream, plan, recorder, span_name, measured_s):
    warmup_s = WARMUP_SHARE * measured_s
    total = warmup_s + measured_s
    schedule = poisson_schedule(plan.seed, "open", OPEN_RATE, total)
    requests = stream.batch("open", len(schedule))
    with recorder.span("phase.open"):
        return await loadloop.open_loop(
            make_issue(target, recorder, span_name), schedule, requests,
            warmup_s=warmup_s, duration_s=total,
            keep_offset=plan.seed % loadloop.VERIFY_EVERY,
        )


def closed_requests(stream, site: str, measured_s: float) -> list:
    """Every client's own request list for one closed-loop phase."""
    total = CLOSED_DRAWN_PER_S * (1.0 + WARMUP_SHARE) * measured_s
    each = max(math.ceil(total / CLIENTS), CLOSED_DRAWN_MIN)
    return [stream.batch(f"{site}:{client}", each) for client in range(CLIENTS)]


async def run_closed(target, requests, plan, recorder, span_name, measured_s, site):
    """*requests*: one list a client (``closed_requests``)."""
    warmup_s = WARMUP_SHARE * measured_s

    def make_request(client: int):
        return itertools.cycle(requests[client]).__next__

    with recorder.span(f"phase.{site}"):
        return await loadloop.closed_loop(
            make_issue(target, recorder, span_name), make_request,
            clients=len(requests), warmup_s=warmup_s,
            duration_s=warmup_s + measured_s,
            keep_offset=plan.seed % loadloop.VERIFY_EVERY,
        )


def _ms(samples, q=50.0):
    return 1e3 * percentile([s.latency_s for s in samples], q)


def verify(phases, maps, recorder) -> int:
    """Check every kept sample against brute force; returns mismatches."""
    with recorder.span("verify"):
        oracles = {
            "map1": MapOracle(maps[0].items()),
            "map2": MapOracle(maps[1].items()),
        }
        wrong = 0
        for phase in phases:
            for sample in phase.samples:
                if sample.value is not None and not oracles[
                    sample.request[1]
                ].check(sample.request, sample.value):
                    wrong += 1
        return wrong


async def _run(plan, recorder, result) -> None:
    targets = _Targets(plan, recorder)
    setup_times = []
    target = None
    for _ in range(plan.setups):
        if target is not None:
            await target.stop()
            target = targets.maps = targets.trees = None
        target, seconds = await targets.setup()
        setup_times.append(seconds)
    result.e2e("setup_s", median(setup_times), len(setup_times))

    stream = RequestStream(
        targets.maps[0].region.side, plan.seed, targets.finds_something
    )
    span_name = f"{targets.kind}.submit"
    chaos = plan.workload == "serve-chaos"
    phase_s = plan.measured_seconds / (1.0 if chaos else 2.0)

    open_phase = await run_open(target, stream, plan, recorder, span_name, phase_s)
    open_snapshot = await _stop(target, recorder, targets.kind)
    phases = [open_phase]
    closed_phase = closed_snapshot = None
    if not chaos:
        requests = closed_requests(stream, "closed", phase_s)
        target = targets.make()
        await target.start()
        closed_phase = await run_closed(
            target, requests, plan, recorder, span_name, phase_s, "closed"
        )
        closed_snapshot = await _stop(target, recorder, targets.kind)
        phases.append(closed_phase)

    wrong = verify(phases, targets.maps, recorder)
    attempted = sum(len(p.samples) for p in phases)
    not_ok = sum(len(p.samples) - len(p.ok()) for p in phases)
    result.attempted = attempted
    result.failed = not_ok + wrong
    result.correct = wrong == 0
    result.note_statuses(phases)
    result.notes["windows_redrawn"] = stream.redrawn

    open_ok = open_phase.ok()
    if chaos:
        result.e2e("req_per_s", len(open_ok) / open_phase.measured_s, len(open_ok))
    else:
        closed_ok = closed_phase.ok()
        result.e2e(
            "req_per_s", len(closed_ok) / closed_phase.measured_s, len(closed_ok)
        )
        if closed_ok:
            result.e2e("p50_ms", _ms(closed_ok), len(closed_ok))
            if tail_percentile(len(closed_ok)) == 99.0:
                result.e2e("p99_ms", _ms(closed_ok, 99.0), len(closed_ok))
        if open_ok:
            result.e2e("open_p50_ms", _ms(open_ok), len(open_ok))

    if recorder.enabled:
        from . import probes  # deferred: probes imports this module

        probes.serving_layers(
            plan, result, targets, open_phase, open_snapshot, closed_phase,
            closed_snapshot,
        )
        await probes.serving_probes(plan, recorder, result, targets, stream)


def run(plan, recorder, result) -> None:
    asyncio.run(_run(plan, recorder, result))
