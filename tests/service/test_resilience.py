"""Units for the retry policy and the engine's retry loop around it."""

import asyncio
import random

import pytest

from repro.datagen import build_tree, paper_maps
from repro.geometry import Rect
from repro.service import (
    Engine,
    EngineConfig,
    RequestClass,
    RetryPolicy,
    WindowRequest,
    WorkerError,
)


@pytest.fixture(scope="module")
def workload():
    map1, map2 = paper_maps(scale=0.01)
    trees = {"map1": build_tree(map1), "map2": build_tree(map2)}
    return trees, map1.region.side


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

    def test_a_spent_budget_fails_typed_before_any_attempt(self, workload):
        """A call whose deadline budget is already spent fails as a typed
        ``deadline`` WorkerError without reaching a worker, and the engine
        serves the next request."""
        trees, side = workload
        window = Rect(0, 0, side / 4, side / 4)

        async def main():
            config = EngineConfig(workers=0, cache_capacity=0)
            async with Engine(trees, config) as engine:
                with pytest.raises(WorkerError) as spent:
                    await engine._execute_with_retry(
                        RequestClass.WINDOW,
                        "windows",
                        ("map1", [tuple(window)]),
                        deadline=engine._now() - 1.0,
                    )
                served = await engine.submit(WindowRequest("map1", window))
                return spent.value, served

        error, served = asyncio.run(main())
        assert error.cause_type == "deadline"
        assert "before attempt 1" in str(error)
        assert served.ok
