"""ShardRouter behaviour: routing, merging, failover, admission, traces."""

import asyncio
import gc
import itertools
import random

import pytest

from repro.faults import FaultPlan
from repro.geometry.rect import Rect
from repro.rtree.bulk import str_bulk_load
from repro.rtree.query import nearest_neighbors, window_query
from repro.join.sequential import sequential_join
from repro.service.model import (
    JoinRequest,
    KNNRequest,
    RequestClass,
    Status,
    WindowRequest,
    canonical_rect,
)
from repro.service import frontdoor
from repro.service.workers import WorkerError, WorkerPool
from repro.shard import ShardConfig, ShardRouter
from repro.trace import (
    EventKind,
    ListSink,
    run_checkers,
    service_checkers,
)


def make_items(n, seed, side=100.0):
    rng = random.Random(seed)
    items = []
    for oid in range(n):
        x, y = rng.uniform(0, side), rng.uniform(0, side)
        items.append(
            (oid, Rect(x, y, x + rng.uniform(0.2, 3.0),
                       y + rng.uniform(0.2, 3.0)))
        )
    return items


DATASETS = {"a": make_items(250, 1), "b": make_items(180, 2)}
ORACLE = {name: str_bulk_load(items) for name, items in DATASETS.items()}


def config(**kw):
    base = dict(shards=4, replicas=1, workers=0, cache_capacity=0)
    base.update(kw)
    return ShardConfig(**base)


def assert_checkers_clean(sink):
    verdicts = run_checkers(sink.events, service_checkers())
    bad = [(v.checker, v.violations) for v in verdicts if not v.ok]
    assert not bad, bad


class TestRoutingParity:
    def test_window_knn_join_match_single_tree(self):
        sink = ListSink()

        async def main():
            results = {}
            async with ShardRouter(DATASETS, config(replicas=2),
                                   sinks=[sink]) as router:
                rng = random.Random(5)
                for i in range(10):
                    x, y = rng.uniform(0, 90), rng.uniform(0, 90)
                    w = (x, y, x + 12, y + 12)
                    r = await router.submit(WindowRequest("a", w))
                    assert r.status is Status.OK
                    canon = Rect(*canonical_rect(w))
                    want = tuple(sorted(
                        e.oid for e in window_query(ORACLE["a"], canon)
                    ))
                    assert r.value == want
                    r = await router.submit(KNNRequest("a", x, y, 5))
                    found = nearest_neighbors(ORACLE["a"], x, y, k=5)
                    assert r.value == tuple((float(d), e.oid) for d, e in found)
                r = await router.submit(JoinRequest("a", "b"))
                want = tuple(sorted(sequential_join(ORACLE["a"], ORACLE["b"]).pairs))
                assert r.value == want
                results["snapshot"] = router.snapshot()
            return results

        results = asyncio.run(main())
        assert_checkers_clean(sink)
        snap = results["snapshot"]
        assert set(snap["shards"]) == {"0", "1", "2", "3"}
        assert snap["partition"]["shards"] == 4
        assert sum(s["subrequests"] for s in snap["shards"].values()) > 0

    def test_fanout_only_overlapping_shards(self):
        sink = ListSink()

        async def main():
            async with ShardRouter(DATASETS, config(), sinks=[sink]) as router:
                # a tiny window deep inside one shard's interior
                r = await router.submit(WindowRequest("a", (10, 10, 11, 11)))
                assert r.status is Status.OK

        asyncio.run(main())
        routed = [e for e in sink.events
                  if e.kind == EventKind.SHD_REQUEST_ROUTED]
        assert len(routed) == 1
        fanned = routed[0].data["shards"].split(",")
        assert 1 <= len([s for s in fanned if s]) < 4
        assert_checkers_clean(sink)


class TestCacheAndAdmission:
    def test_cache_hit_on_repeat(self):
        async def main():
            async with ShardRouter(
                DATASETS, config(cache_capacity=64)
            ) as router:
                first = await router.submit(WindowRequest("a", (5, 5, 30, 30)))
                second = await router.submit(WindowRequest("a", (5, 5, 30, 30)))
                return first, second

        first, second = asyncio.run(main())
        assert first.status is Status.OK and not first.cached
        assert second.status is Status.OK and second.cached
        assert second.value == first.value

    def test_rejects_after_stop(self):
        async def main():
            router = ShardRouter(DATASETS, config())
            await router.start()
            await router.stop()
            return await router.submit(WindowRequest("a", (0, 0, 1, 1)))

        response = asyncio.run(main())
        assert response.status is Status.REJECTED

    def test_unknown_tree_is_an_error(self):
        async def main():
            async with ShardRouter(DATASETS, config()) as router:
                return await router.submit(
                    WindowRequest("missing", (0, 0, 1, 1))
                )

        response = asyncio.run(main())
        assert response.status is Status.ERROR
        assert "missing" in response.detail


class TestFailover:
    def test_crashes_fail_over_to_replicas_zero_lost(self, monkeypatch):
        sink = ListSink()
        plan = FaultPlan(seed=11, worker_crash_p=0.3)
        monkeypatch.setattr(frontdoor, "MAX_ATTEMPTS", 4)

        async def main():
            statuses = []
            async with ShardRouter(
                DATASETS,
                config(replicas=2, workers=2, faults=plan, attempt_timeout_s=2.0),
                sinks=[sink],
            ) as router:
                rng = random.Random(3)
                for _ in range(30):
                    x, y = rng.uniform(0, 90), rng.uniform(0, 90)
                    r = await router.submit(
                        WindowRequest("a", (x, y, x + 10, y + 10))
                    )
                    statuses.append(r.status)
                snap = router.snapshot()
            return statuses, snap

        statuses, snap = asyncio.run(main())
        assert all(s is Status.OK for s in statuses)
        failovers = [e for e in sink.events if e.kind == EventKind.SHD_FAILOVER]
        assert failovers, "crash_p=0.3 over 30 requests must fail over"
        # every failover re-dispatched to the other replica, and was
        # caused by the death itself — no attempt deadline was waited out
        for event in failovers:
            assert event.data["next_replica"] != event.data["replica"]
            assert event.data["error"] == "worker-died"
        crashes = snap["faults_injected"]["crashes"]
        assert snap["supervisor"]["crashes_detected"] == crashes
        assert snap["supervisor"]["respawns_detected"] == crashes
        assert snap["supervisor"]["workers_killed"] == 0
        assert len(failovers) == crashes
        assert_checkers_clean(sink)

    def test_single_replica_retries_same_pool(self):
        sink = ListSink()
        plan = FaultPlan(seed=7, worker_crash_p=0.25)

        async def main():
            async with ShardRouter(
                DATASETS,
                config(replicas=1, workers=0, faults=plan),
                sinks=[sink],
            ) as router:
                rng = random.Random(1)
                responses = []
                for _ in range(25):
                    x, y = rng.uniform(0, 90), rng.uniform(0, 90)
                    responses.append(await router.submit(
                        WindowRequest("a", (x, y, x + 8, y + 8))
                    ))
            return responses

        responses = asyncio.run(main())
        assert all(r.status is Status.OK for r in responses)
        assert_checkers_clean(sink)


class FakeClock:
    """An injectable monotonic clock the tests advance by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def shd_events(sink, kind):
    return [e for e in sink.events if e.kind is kind]


class TestSettlementDiscipline:
    """Every SHD_SUBREQUEST_SENT settles exactly once — the regression
    suite for the three settlement defects the protocol conformance
    monitors flagged (FAILED with no SENT, FAILED after a FAILOVER's
    unhonoured resend promise, and cancellation's unconditional FAILED).
    """

    def test_budget_expired_before_first_attempt_emits_no_settlement(self):
        # Deadline already dead when the sub-request starts: it must
        # raise without ANY settlement event — there is no SENT for a
        # FAILED to settle, and an unmatched FAILED unbalances the
        # fan-out ledger.
        sink = ListSink()
        clock = FakeClock()

        async def main():
            async with ShardRouter(
                DATASETS, config(), sinks=[sink], clock=clock
            ) as router:
                clock.t = 100.0  # router time is now far past...
                with pytest.raises(WorkerError) as info:
                    await router._sub(
                        1, 0, RequestClass.WINDOW, "windows",
                        ("a", [(0.0, 0.0, 1.0, 1.0)]), deadline=50.0,
                    )  # ...this request budget
                assert info.value.cause_type == "deadline"

        asyncio.run(main())
        assert shd_events(sink, EventKind.SHD_SUBREQUEST_SENT) == []
        assert shd_events(sink, EventKind.SHD_SUBREQUEST_FAILED) == []
        assert shd_events(sink, EventKind.SHD_FAILOVER) == []
        assert_checkers_clean(sink)

    def test_budget_death_between_attempts_fails_instead_of_failover(
        self, monkeypatch
    ):
        # The attempt burns the whole request budget and fails.  The old
        # code announced a FAILOVER (promising a resend) and then gave
        # up at the top of the loop — one SENT settled twice.  Now the
        # give-up decision precedes the FAILOVER emit.
        sink = ListSink()
        clock = FakeClock()
        call_ids = itertools.count(10_000)

        async def dying_run(pool, kind, *args, timeout_s=None):
            clock.t += 1000.0  # the attempt consumed the entire budget
            call = next(call_ids)
            if pool.tracer.enabled:
                pool.tracer.emit(
                    EventKind.SUP_CALL_FAILED,
                    call=call, op=kind, error="crash",
                )
            raise WorkerError(
                "worker crashed", cause_type="crash",
                call_id=call, kind=kind,
            )

        monkeypatch.setattr(WorkerPool, "run", dying_run)
        monkeypatch.setattr(frontdoor, "MAX_ATTEMPTS", 4)

        async def main():
            async with ShardRouter(
                DATASETS,
                config(replicas=2),
                sinks=[sink],
                clock=clock,
            ) as router:
                return await router.submit(
                    WindowRequest("a", (0, 0, 90, 90)), timeout=500.0
                )

        response = asyncio.run(main())
        assert response.status is Status.ERROR
        sent = shd_events(sink, EventKind.SHD_SUBREQUEST_SENT)
        failed = shd_events(sink, EventKind.SHD_SUBREQUEST_FAILED)
        assert len(sent) >= 1
        assert len(failed) == len(sent)
        assert shd_events(sink, EventKind.SHD_FAILOVER) == []
        assert_checkers_clean(sink)

    def test_cancelled_inflight_attempt_settles_as_abandoned(
        self, monkeypatch
    ):
        # A request timeout cancels the fan-out while attempts are in
        # flight: each unsettled SENT settles FAILED(error=abandoned),
        # its lease expires and its task requeues with no taker.
        sink = ListSink()

        async def hanging_run(pool, kind, *args, timeout_s=None):
            await asyncio.sleep(30.0)

        monkeypatch.setattr(WorkerPool, "run", hanging_run)

        async def main():
            async with ShardRouter(
                DATASETS, config(), sinks=[sink]
            ) as router:
                return await router.submit(
                    WindowRequest("a", (0, 0, 90, 90)), timeout=0.2
                )

        response = asyncio.run(main())
        assert response.status is Status.TIMEOUT
        sent = shd_events(sink, EventKind.SHD_SUBREQUEST_SENT)
        failed = shd_events(sink, EventKind.SHD_SUBREQUEST_FAILED)
        assert len(sent) >= 1
        assert len(failed) == len(sent)
        assert all(e.data["error"] == "abandoned" for e in failed)
        assert_checkers_clean(sink)

    def test_exhausted_attempts_keep_the_failover_chain(self, monkeypatch):
        # Unchanged behaviour with no deadline pressure: N attempts are
        # N SENTs, N-1 FAILOVERs and one final FAILED.
        sink = ListSink()
        call_ids = itertools.count(20_000)

        async def failing_run(pool, kind, *args, timeout_s=None):
            call = next(call_ids)
            if pool.tracer.enabled:
                pool.tracer.emit(
                    EventKind.SUP_CALL_FAILED,
                    call=call, op=kind, error="crash",
                )
            raise WorkerError(
                "worker crashed", cause_type="crash",
                call_id=call, kind=kind,
            )

        monkeypatch.setattr(WorkerPool, "run", failing_run)

        async def main():
            async with ShardRouter(
                DATASETS,
                config(replicas=1),
                sinks=[sink],
            ) as router:
                # A window deep inside one grid cell: a single-shard
                # fan-out, so the one give-up matches the one surfaced
                # request error.
                return await router.submit(
                    WindowRequest("a", (20, 20, 21, 21)), timeout=None
                )

        response = asyncio.run(main())
        assert response.status is Status.ERROR
        sent = shd_events(sink, EventKind.SHD_SUBREQUEST_SENT)
        failovers = shd_events(sink, EventKind.SHD_FAILOVER)
        failed = shd_events(sink, EventKind.SHD_SUBREQUEST_FAILED)
        # Every fanned-out shard runs its full chain: 3 SENTs settle as
        # 2 FAILOVERs + 1 FAILED each.
        shards = len(failed)
        assert shards >= 1
        assert len(sent) == 3 * shards
        assert len(failovers) == 2 * shards
        assert all(e.data["attempts"] == 3 for e in failed)
        assert_checkers_clean(sink)


class TestSnapshot:
    def test_engine_shape_plus_shards(self):
        async def main():
            async with ShardRouter(DATASETS, config()) as router:
                await router.submit(WindowRequest("a", (0, 0, 50, 50)))
                return router.snapshot()

        snap = asyncio.run(main())
        for key in ("metrics", "cache", "inflight", "running", "breakers",
                    "pool", "partition", "shards"):
            assert key in snap, key
        assert snap["partition"]["mode"] == "grid"
        for stats in snap["shards"].values():
            for key in ("objects", "subrequests", "rows", "failovers",
                        "knn_skips", "inflight", "queue_depth", "replicas",
                        "crashes_detected"):
                assert key in stats, key


class TestRetainedState:
    def test_router_keeps_nothing_per_subrequest(self):
        """What the router holds is its topology and bounded metrics: once
        warm, 2,000 more cache-less windows leave the count of live
        gc-tracked objects where it was.  (A lease and a ledger row per
        sub-request used to stay behind for the router's lifetime.)"""

        async def main():
            rng = random.Random(11)
            live = {}
            async with ShardRouter(DATASETS, config()) as router:
                for sent in range(1, 3001):
                    x, y = rng.uniform(0, 88), rng.uniform(0, 88)
                    response = await router.submit(
                        WindowRequest("a", (x, y, x + 12, y + 12))
                    )
                    assert response.status is Status.OK
                    if sent in (1000, 3000):
                        gc.collect()
                        live[sent] = len(gc.get_objects())
                shards = router.snapshot()["shards"].values()
            return live, sum(s["subrequests"] for s in shards)

        live, subrequests = asyncio.run(main())
        assert subrequests >= 3000
        assert live[3000] - live[1000] < 200, live
