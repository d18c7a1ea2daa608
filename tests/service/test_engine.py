"""Engine front-door behaviour: admission control, timeouts, shutdown,
cache-differential correctness and trace-ledger reconciliation.

The front door is one class (``repro.service.frontdoor.FrontDoor``), so
its tests run twice: as written over :class:`Engine`, and again over a
2-shard :class:`ShardRouter` through the ``...Sharded`` subclasses, which
only swap the ``make_target`` class attribute.
"""

import asyncio
import random
from dataclasses import fields

import pytest

from repro.datagen import paper_maps
from repro.geometry import Rect
from repro.join import sequential_join
from repro.rtree import build_flat_tree
from repro.rtree.query import nearest_neighbors, window_query
from repro.service import batcher, frontdoor
from repro.service import engine as service_engine
from repro.service import (
    Engine,
    EngineConfig,
    JoinRequest,
    KNNRequest,
    Status,
    WindowRequest,
)
from repro.service.workers import WorkerPool
from repro.shard import ShardConfig, ShardRouter
from repro.shard import router as shard_router
from repro.trace import EventKind, ListSink, run_checkers, service_checkers


@pytest.fixture(scope="module")
def workload():
    map1, map2 = paper_maps(scale=0.01)
    trees = {"map1": build_flat_tree(map1), "map2": build_flat_tree(map2)}
    return trees, map1.region.side


def make_engine(trees, config=None, sinks=()):
    return Engine(trees, config, sinks=sinks)


def batch_for(monkeypatch, window_s, max_batch):
    monkeypatch.setattr(batcher, "WINDOW_S", window_s)
    monkeypatch.setattr(batcher, "MAX_BATCH", max_batch)


def one_join_slot(monkeypatch):
    """One join slot on either tier, and a patient default timeout."""
    monkeypatch.setattr(service_engine, "JOIN_LIMIT", 1)
    monkeypatch.setattr(shard_router, "JOIN_LIMIT", 1)
    monkeypatch.setattr(frontdoor, "DEFAULT_TIMEOUT_S", 60.0)


def make_router(trees, config=None, sinks=()):
    """The same objects and the same shared knobs on the sharded tier
    (the engine-only one, batching, has no counterpart)."""
    config = config or EngineConfig()
    shared = {
        f.name: getattr(config, f.name)
        for f in fields(ShardConfig)
        if hasattr(config, f.name)
    }
    datasets = {name: tree.table for name, tree in trees.items()}
    return ShardRouter(datasets, ShardConfig(shards=2, **shared), sinks=sinks)


class FrontDoorSuite:
    """Fixtures of one tier; the constructor is the only variable."""

    make_target = staticmethod(make_engine)

    @staticmethod
    def assert_lawful(sink):
        verdicts = run_checkers(sink.events, service_checkers())
        assert all(v.ok for v in verdicts), [v.violations for v in verdicts]


def random_window(rng, side, frac=0.1):
    extent = side * frac
    x = rng.uniform(0, side - extent)
    y = rng.uniform(0, side - extent)
    return Rect(x, y, x + extent, y + extent)


def window_oracle(tree, window):
    return tuple(sorted(e.oid for e in window_query(tree, window)))


class TestDifferentialCorrectness:
    def test_cached_results_equal_uncached_execution(self, workload, monkeypatch):
        """Every response of a cache-enabled engine — hit or miss, batched
        or not — equals a direct uncached execution of the same query."""
        trees, side = workload
        batch_for(monkeypatch, 0.01, 8)
        config = EngineConfig(workers=0, cache_capacity=256)
        rng = random.Random(21)
        windows = [random_window(rng, side) for _ in range(12)]
        wave = [WindowRequest("map1", w) for w in windows]
        wave += [
            KNNRequest("map1", rng.uniform(0, side), rng.uniform(0, side), k)
            for k in (1, 5, 17)
        ]
        wave.append(JoinRequest("map1", "map2", window=windows[0]))
        # Two identical waves: the second one is served from the cache.
        requests = wave + wave
        sink = ListSink()

        async def main():
            async with Engine(trees, config, sinks=[sink]) as engine:
                first = await asyncio.gather(
                    *(engine.submit(r) for r in wave)
                )
                second = await asyncio.gather(
                    *(engine.submit(r) for r in wave)
                )
                return first + second, engine

        responses, engine = asyncio.run(main())
        assert all(r.status is Status.OK for r in responses)
        assert any(r.cached for r in responses)
        for request, response in zip(requests, responses):
            if isinstance(request, WindowRequest):
                want = window_oracle(trees[request.tree], request.window)
            elif isinstance(request, KNNRequest):
                want = tuple(
                    (float(d), e.oid)
                    for d, e in nearest_neighbors(
                        trees[request.tree], request.x, request.y, k=request.k
                    )
                )
            else:
                pairs = sequential_join(trees["map1"], trees["map2"]).pairs
                keep_r = set(
                    window_oracle(trees["map1"], request.window)
                )
                keep_s = set(
                    window_oracle(trees["map2"], request.window)
                )
                want = tuple(
                    sorted(
                        (r, s)
                        for r, s in pairs
                        if r in keep_r and s in keep_s
                    )
                )
            assert response.value == want, request

        # Counter reconciliation: cache counters match the trace ledger
        # and the request counts (every admitted request did one lookup).
        cache = engine.cache
        assert cache.lookups == cache.hits + cache.misses
        assert cache.hits > 0
        verdicts = run_checkers(sink.events, service_checkers())
        assert all(v.ok for v in verdicts), [v.violations for v in verdicts]
        ledger = {v.checker: v.stats for v in verdicts}
        accounting = ledger["protocol:service-ledger"]
        assert accounting["hits"] == cache.hits
        assert accounting["misses"] == cache.misses
        assert accounting["evictions"] == cache.evictions
        assert accounting["admitted"] == len(requests)
        assert cache.lookups == accounting["admitted"]


class TestAdmissionControl(FrontDoorSuite):
    def test_inflight_limit_rejects_and_recovers(self, workload, monkeypatch):
        trees, side = workload
        batch_for(monkeypatch, 0.005, 4)
        config = EngineConfig(workers=0, max_inflight=16, cache_capacity=0)
        sink = ListSink()

        async def main():
            async with self.make_target(trees, config, [sink]) as engine:
                big = Rect(0, 0, side, side)
                responses = await asyncio.gather(
                    *(
                        engine.submit(WindowRequest("map1", big, cacheable=False))
                        for _ in range(80)
                    )
                )
                # After the burst drains, the engine admits again.
                late = await engine.submit(WindowRequest("map1", big))
                return responses, late, engine

        responses, late, engine = asyncio.run(main())
        statuses = {r.status for r in responses}
        assert Status.REJECTED in statuses
        assert Status.OK in statuses
        rejected = [r for r in responses if r.status is Status.REJECTED]
        assert all("limit" in r.detail for r in rejected)
        assert late.ok
        assert engine.metrics.rejected == len(rejected)
        self.assert_lawful(sink)

    def test_sustains_64_concurrent_inflight(self, workload, monkeypatch):
        """≥ 64 window queries genuinely in flight at once, admission
        control engaged (rejections counted), no deadlock, clean stop."""
        trees, side = workload
        monkeypatch.setattr(frontdoor, "DEFAULT_TIMEOUT_S", 30.0)
        config = EngineConfig(workers=0, max_inflight=96, cache_capacity=0)
        sink = ListSink()

        async def main():
            engine = self.make_target(trees, config, [sink])
            await engine.start()
            rng = random.Random(5)
            responses = await asyncio.gather(
                *(
                    engine.submit(
                        WindowRequest("map1", random_window(rng, side, 0.5))
                    )
                    for _ in range(300)
                )
            )
            await engine.stop()
            return responses, engine

        responses, engine = asyncio.run(main())
        outcomes = {r.status for r in responses}
        assert outcomes <= {Status.OK, Status.REJECTED}
        completed = sum(r.ok for r in responses)
        rejected = sum(r.status is Status.REJECTED for r in responses)
        assert completed + rejected == 300
        assert engine.metrics.queue_depth_max >= 64
        assert rejected > 0  # admission control engaged
        assert completed >= 96
        self.assert_lawful(sink)

    def test_timeout_returns_timeout_status(self, workload, monkeypatch):
        # A lone window request waits the full coalescing window (200 ms)
        # in the batcher, far past its 10 ms budget → deterministic timeout.
        # A tier with no batcher reaches the pool, which never answers.
        trees, side = workload
        batch_for(monkeypatch, 0.2, 64)
        config = EngineConfig(workers=0, cache_capacity=0)
        sink = ListSink()

        async def hanging_run(pool, kind, *args, timeout_s=None):
            await asyncio.sleep(30.0)

        monkeypatch.setattr(WorkerPool, "run", hanging_run)

        async def main():
            async with self.make_target(trees, config, [sink]) as engine:
                return await engine.submit(
                    WindowRequest("map1", Rect(0, 0, side, side)),
                    timeout=0.01,
                )

        response = asyncio.run(main())
        assert response.status is Status.TIMEOUT
        assert "timed out" in response.detail
        self.assert_lawful(sink)

    def test_per_class_limits_serialize_joins(self, workload, monkeypatch):
        trees, _ = workload
        one_join_slot(monkeypatch)
        config = EngineConfig(workers=0, cache_capacity=0)
        sink = ListSink()

        async def main():
            async with self.make_target(trees, config, [sink]) as engine:
                responses = await asyncio.gather(
                    *(engine.submit(JoinRequest("map1", "map2")) for _ in range(3))
                )
                return responses

        responses = asyncio.run(main())
        assert all(r.ok for r in responses)
        assert all(r.value == responses[0].value for r in responses)
        self.assert_lawful(sink)


    def test_waiting_room_limit_rejects(
        self, workload, monkeypatch
    ):
        """One join holds the only slot, whoever queues behind it fills a
        waiting room of one, and the next join is turned away at the
        door — before admission, as ``reason="queue"``."""
        trees, _ = workload
        one_join_slot(monkeypatch)
        config = EngineConfig(workers=0, cache_capacity=0)
        monkeypatch.setattr(frontdoor, "QUEUE_LIMIT", 1)
        run, sink = WorkerPool.run, ListSink()

        async def main():
            gate = asyncio.Event()

            async def gated_run(pool, kind, *args, timeout_s=None):
                await gate.wait()
                return await run(pool, kind, *args, timeout_s=timeout_s)

            monkeypatch.setattr(WorkerPool, "run", gated_run)
            async with self.make_target(trees, config, [sink]) as engine:
                join = JoinRequest("map1", "map2")
                parked = [
                    asyncio.ensure_future(engine.submit(join)) for _ in range(2)
                ]
                for _ in range(50):  # both reach the gate or the slot queue
                    await asyncio.sleep(0)
                refused = await engine.submit(join)
                gate.set()
                return refused, await asyncio.gather(*parked), engine

        refused, parked, engine = asyncio.run(main())
        assert refused.status is Status.REJECTED
        assert "waiting-room limit 1 " in refused.detail
        assert parked[0].ok
        # The router's first join already queues its second shard's
        # sub-request, so there the second join is refused as well.
        assert {r.status for r in parked} <= {Status.OK, Status.REJECTED}
        rejections = [
            e for e in sink.events if e.kind is EventKind.SVC_REQUEST_REJECTED
        ]
        assert rejections and all(
            e.data["reason"] == "queue" for e in rejections
        )
        assert engine.metrics.rejected == len(rejections)
        self.assert_lawful(sink)


class TestErrorsAndShutdown(FrontDoorSuite):
    def test_unknown_tree_is_an_error_response(self, workload):
        trees, _ = workload
        sink = ListSink()

        async def main():
            async with self.make_target(
                trees, EngineConfig(workers=0), [sink]
            ) as engine:
                return await engine.submit(
                    WindowRequest("nope", Rect(0, 0, 1, 1))
                )

        response = asyncio.run(main())
        assert response.status is Status.ERROR
        assert "nope" in response.detail
        self.assert_lawful(sink)

    def test_invalid_k_is_an_error_response(self, workload):
        trees, _ = workload
        sink = ListSink()

        async def main():
            async with self.make_target(
                trees, EngineConfig(workers=0), [sink]
            ) as engine:
                return await engine.submit(KNNRequest("map1", 0, 0, 0))

        response = asyncio.run(main())
        assert response.status is Status.ERROR
        self.assert_lawful(sink)

    def test_submit_after_stop_rejected(self, workload):
        trees, _ = workload
        sink = ListSink()

        async def main():
            engine = self.make_target(trees, EngineConfig(workers=0), [sink])
            await engine.start()
            await engine.stop()
            return await engine.submit(WindowRequest("map1", Rect(0, 0, 1, 1)))

        response = asyncio.run(main())
        assert response.status is Status.REJECTED
        assert "not accepting" in response.detail
        self.assert_lawful(sink)

    def test_stop_drains_inflight_work(self, workload, monkeypatch):
        trees, side = workload
        batch_for(monkeypatch, 0.01, 32)
        config = EngineConfig(workers=0, cache_capacity=0)
        sink = ListSink()

        async def main():
            engine = self.make_target(trees, config, [sink])
            await engine.start()
            pending = [
                asyncio.create_task(
                    engine.submit(WindowRequest("map1", Rect(0, 0, side, side)))
                )
                for _ in range(20)
            ]
            await asyncio.sleep(0)  # let the submissions be admitted
            await engine.stop()
            return await asyncio.gather(*pending)

        responses = asyncio.run(main())
        # Everything admitted before the stop still completed.
        assert all(
            r.status in (Status.OK, Status.REJECTED) for r in responses
        )
        assert any(r.ok for r in responses)
        self.assert_lawful(sink)

    def test_engine_requires_trees(self):
        with pytest.raises(ValueError):
            self.make_target({})


class TestAdmissionControlSharded(TestAdmissionControl):
    make_target = staticmethod(make_router)


class TestErrorsAndShutdownSharded(TestErrorsAndShutdown):
    make_target = staticmethod(make_router)


@pytest.mark.slow
class TestForkedWorkers:
    def test_forked_pool_matches_oracle(self, workload):
        trees, side = workload
        config = EngineConfig(workers=2, cache_capacity=0)

        async def main():
            async with Engine(trees, config) as engine:
                forked = engine.pool.forked
                rng = random.Random(31)
                requests = [
                    WindowRequest("map1", random_window(rng, side))
                    for _ in range(20)
                ]
                requests.append(KNNRequest("map2", side / 2, side / 2, 7))
                responses = await asyncio.gather(
                    *(engine.submit(r) for r in requests)
                )
                return forked, requests, responses

        forked, requests, responses = asyncio.run(main())
        assert all(r.ok for r in responses)
        for request, response in zip(requests, responses):
            if isinstance(request, WindowRequest):
                assert response.value == window_oracle(
                    trees[request.tree], request.window
                )
            else:
                want = tuple(
                    (float(d), e.oid)
                    for d, e in nearest_neighbors(
                        trees["map2"], request.x, request.y, k=7
                    )
                )
                assert response.value == want
