"""Units for the resilience primitives (retry policy, circuit breaker)
and the engine's degraded modes (serve-stale, shed) under open circuits."""

import asyncio
import random
import time

import pytest

from repro.datagen import build_tree, paper_maps
from repro.geometry import Rect
from repro.service import (
    CircuitBreaker,
    Engine,
    EngineConfig,
    RequestClass,
    RetryPolicy,
    Status,
    WindowRequest,
    WorkerError,
    frontdoor,
)
from repro.trace import EventKind, ListSink, run_checkers, service_checkers


class TestRetryPolicy:
    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            base_delay_s=0.1, max_delay_s=0.5, multiplier=2.0, jitter=0.0
        )
        rng = random.Random(1)
        assert policy.delay(1, rng) == pytest.approx(0.1)
        assert policy.delay(2, rng) == pytest.approx(0.2)
        assert policy.delay(3, rng) == pytest.approx(0.4)
        assert policy.delay(4, rng) == pytest.approx(0.5)  # capped
        assert policy.delay(10, rng) == pytest.approx(0.5)

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(
            base_delay_s=0.1, max_delay_s=1.0, multiplier=1.0, jitter=0.2
        )
        rng = random.Random(7)
        for _ in range(200):
            delay = policy.delay(1, rng)
            assert 0.08 <= delay <= 0.12

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0, random.Random(0))

    def test_next_delay_stops_at_max_attempts(self):
        policy = RetryPolicy(max_attempts=3, jitter=0.0)
        rng = random.Random(0)
        assert policy.next_delay(1, rng, None) is not None
        assert policy.next_delay(2, rng, None) is not None
        assert policy.next_delay(3, rng, None) is None

    def test_next_delay_respects_deadline_budget(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.2, jitter=0.0, min_attempt_s=0.05
        )
        rng = random.Random(0)
        # Budget fits sleep (0.2) + minimum useful window (0.05).
        assert policy.next_delay(1, rng, 0.30) == pytest.approx(0.2)
        # Budget cannot fit the backoff plus a useful attempt: no retry.
        assert policy.next_delay(1, rng, 0.20) is None
        assert policy.next_delay(1, rng, 0.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=0.5, max_delay_s=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def make(self, clock, sink=None, **kwargs):
        from repro.trace import Tracer

        tracer = (
            Tracer(clock=clock, sinks=[sink]) if sink is not None else None
        )
        defaults = dict(failure_threshold=3, reset_timeout_s=1.0, clock=clock)
        defaults.update(kwargs)
        if tracer is not None:
            defaults["tracer"] = tracer
        return CircuitBreaker("window", **defaults)

    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1.5)
        assert breaker.allow()  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_half_open_bounds_concurrent_probes(self):
        clock = FakeClock()
        breaker = self.make(clock, half_open_max=2)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # third probe refused

    def test_transitions_are_traced_and_lawful(self):
        from repro.trace import ListSink

        clock = FakeClock()
        sink = ListSink()
        breaker = self.make(clock, sink=sink)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.5)
        breaker.allow()
        breaker.record_failure()
        clock.advance(1.5)
        breaker.allow()
        breaker.record_success()
        kinds = [e.kind for e in sink.events]
        assert kinds == [
            EventKind.SUP_BREAKER_OPEN,
            EventKind.SUP_BREAKER_HALF_OPEN,
            EventKind.SUP_BREAKER_OPEN,
            EventKind.SUP_BREAKER_HALF_OPEN,
            EventKind.SUP_BREAKER_CLOSED,
        ]
        verdicts = run_checkers(sink.events, service_checkers())
        assert all(v.ok for v in verdicts)

    def test_release_returns_the_probe_slot(self):
        """An admission whose attempt is cancelled (no success/failure
        recorded) must not consume the half-open probe slot forever."""
        clock = FakeClock()
        breaker = self.make(clock, half_open_max=1)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()  # the probe... whose awaiter is cancelled
        assert not breaker.allow()
        breaker.release()
        assert breaker.allow()  # slot is back; breaker not wedged
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_release_is_noop_when_closed(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.release()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_stuck_half_open_probe_is_reclaimed_after_reset_window(self):
        """Backstop: even if release() is never called, a probe slot with
        no outcome for a full reset_timeout_s is reclaimed rather than
        wedging the breaker in HALF_OPEN permanently."""
        clock = FakeClock()
        breaker = self.make(clock, half_open_max=1, reset_timeout_s=1.0)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()  # probe leaks: no outcome, no release
        assert not breaker.allow()
        clock.advance(0.5)
        assert not breaker.allow()  # within the reset window: still held
        clock.advance(0.6)
        assert breaker.allow()  # reclaimed
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_snapshot(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == "closed"
        assert snap["consecutive_failures"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", reset_timeout_s=0.0)


@pytest.fixture(scope="module")
def workload():
    map1, map2 = paper_maps(scale=0.01)
    trees = {"map1": build_tree(map1), "map2": build_tree(map2)}
    return trees, map1.region.side


def _trip_all_breakers(engine):
    for breaker in engine.breakers.values():
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN


class TestDegradedModes:
    def test_open_circuit_serves_stale_cache(self, workload, monkeypatch):
        """A cacheable request whose circuit is open is answered from the
        TTL-expired cache entry, flagged stale — not silently fresh."""
        trees, side = workload
        monkeypatch.setattr(frontdoor, "CACHE_TTL_S", 0.05)
        config = EngineConfig(
            workers=0, cache_capacity=64, serve_stale=True, breaker_reset_s=60.0,
        )
        sink = ListSink()
        window = Rect(0, 0, side / 4, side / 4)

        async def main():
            async with Engine(trees, config, sinks=[sink]) as engine:
                fresh = await engine.submit(WindowRequest("map1", window))
                await asyncio.sleep(0.1)  # let the TTL expire
                _trip_all_breakers(engine)
                degraded = await engine.submit(WindowRequest("map1", window))
                return fresh, degraded, engine

        fresh, degraded, engine = asyncio.run(main())
        assert fresh.ok and not fresh.stale
        assert degraded.status is Status.OK
        assert degraded.cached and degraded.stale
        assert degraded.value == fresh.value
        assert engine.cache.stale_hits == 1
        kinds = [e.kind for e in sink.events]
        assert EventKind.SVC_CACHE_STALE_HIT in kinds
        verdicts = run_checkers(sink.events, service_checkers())
        assert all(v.ok for v in verdicts), [
            (v.name, v.violations) for v in verdicts if not v.ok
        ]
        # Metrics surface the stale serve distinctly.
        report = engine.metrics.report()
        assert report["stale_served"] == 1

    def test_open_circuit_sheds_when_nothing_cached(self, workload):
        trees, side = workload
        config = EngineConfig(
            workers=0, cache_capacity=64, serve_stale=True,
            breaker_reset_s=60.0,
        )
        sink = ListSink()

        async def main():
            async with Engine(trees, config, sinks=[sink]) as engine:
                _trip_all_breakers(engine)
                return (
                    await engine.submit(
                        WindowRequest("map1", Rect(0, 0, 1, 1))
                    ),
                    engine,
                )

        response, engine = asyncio.run(main())
        assert response.status is Status.SHED
        assert "circuit" in response.detail or response.detail == ""
        kinds = [e.kind for e in sink.events]
        assert EventKind.SVC_REQUEST_SHED in kinds
        verdicts = run_checkers(sink.events, service_checkers())
        assert all(v.ok for v in verdicts), [
            (v.name, v.violations) for v in verdicts if not v.ok
        ]
        assert engine.metrics.report()["shed"] == 1

    def test_serve_stale_disabled_always_sheds(self, workload, monkeypatch):
        trees, side = workload
        monkeypatch.setattr(frontdoor, "CACHE_TTL_S", 0.05)
        config = EngineConfig(
            workers=0, cache_capacity=64, serve_stale=False, breaker_reset_s=60.0,
        )
        window = Rect(0, 0, side / 4, side / 4)

        async def main():
            async with Engine(trees, config) as engine:
                await engine.submit(WindowRequest("map1", window))
                await asyncio.sleep(0.1)
                _trip_all_breakers(engine)
                return await engine.submit(WindowRequest("map1", window))

        response = asyncio.run(main())
        assert response.status is Status.SHED

    def test_circuit_recovers_after_reset(self, workload):
        """Open circuit + elapsed reset window: the next request is the
        half-open probe; its success closes the circuit for good."""
        trees, side = workload
        config = EngineConfig(
            workers=0, cache_capacity=0, breaker_reset_s=0.05,
        )
        window = Rect(0, 0, side / 4, side / 4)

        async def main():
            async with Engine(trees, config) as engine:
                _trip_all_breakers(engine)
                await asyncio.sleep(0.1)  # past the reset timeout
                probe = await engine.submit(WindowRequest("map1", window))
                after = await engine.submit(WindowRequest("map1", window))
                states = {
                    cls.value: b.state for cls, b in engine.breakers.items()
                }
                return probe, after, states

        probe, after, states = asyncio.run(main())
        assert probe.ok
        assert after.ok
        assert states[RequestClass.WINDOW.value] == CircuitBreaker.CLOSED

    def test_exhausted_deadline_does_not_leak_the_probe_slot(self, workload):
        """Regression: the budget-exhausted WorkerError used to fire
        *after* breaker.allow() had consumed the half-open probe slot,
        wedging the breaker in HALF_OPEN for good (every later request
        shed until restart).  The budget check now runs first."""
        trees, side = workload
        config = EngineConfig(
            workers=0, cache_capacity=0, breaker_reset_s=0.05,
        )
        window = Rect(0, 0, side / 4, side / 4)

        async def main():
            async with Engine(trees, config) as engine:
                breaker = engine.breakers[RequestClass.WINDOW]
                for _ in range(breaker.failure_threshold):
                    breaker.record_failure()
                await asyncio.sleep(0.1)  # past the reset timeout
                # A request arriving with its deadline already spent
                # fails typed — and must not take the probe slot.
                with pytest.raises(WorkerError):
                    await engine._execute_with_retry(
                        RequestClass.WINDOW,
                        "windows",
                        ("map1", [tuple(window)]),
                        deadline=engine._now() - 1.0,
                    )
                probe = await engine.submit(WindowRequest("map1", window))
                return probe, breaker.state

        probe, state = asyncio.run(main())
        assert probe.ok
        assert state == CircuitBreaker.CLOSED

    def test_cancelled_probe_releases_the_slot(self, workload):
        """Regression: cancelling the submit-level wait while the probe
        attempt is in flight used to leak the slot (no success, no
        failure); the attempt's finally-release returns it."""
        trees, side = workload
        config = EngineConfig(
            workers=0, cache_capacity=0, breaker_reset_s=0.05,
            batching=False,
        )
        window = Rect(0, 0, side / 4, side / 4)

        async def main():
            async with Engine(trees, config) as engine:
                breaker = engine.breakers[RequestClass.WINDOW]
                for _ in range(breaker.failure_threshold):
                    breaker.record_failure()
                await asyncio.sleep(0.1)  # half-open on next allow()
                task = asyncio.ensure_future(
                    engine._execute_with_retry(
                        RequestClass.WINDOW,
                        "windows",
                        ("map1", [tuple(window)]),
                        deadline=None,
                    )
                )
                await asyncio.sleep(0)  # let it take the probe slot
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                probe = await engine.submit(WindowRequest("map1", window))
                return probe, breaker.state

        probe, state = asyncio.run(main())
        assert probe.ok
        assert state == CircuitBreaker.CLOSED
