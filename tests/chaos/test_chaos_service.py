"""The chaos acceptance invariant for the serving engine.

Under injected worker crashes (p=0.05), hangs (p=0.02) and 4x slowed
I/O, a load of mixed requests must lose nothing: every submitted request
reaches a terminal status, no result is duplicated or wrong, every
injected fault is reconciled by the worker-call spec, and retries stay
inside their deadline budgets.
"""

import asyncio
import random

import pytest

from repro.datagen import build_tree, paper_maps
from repro.faults import FaultPlan
from repro.rtree.query import window_query
from repro.service import (
    Engine,
    EngineConfig,
    Status,
    WindowRequest,
    fork_available,
)
from repro.service import frontdoor
from repro.trace import ListSink, run_checkers, service_checkers

from tests.service.test_engine import random_window

CHAOS_PLAN = FaultPlan(
    seed=1337,
    worker_crash_p=0.05,
    worker_hang_p=0.02,
    hang_s=1.0,
    slow_io_p=0.10,
    slow_io_factor=4.0,
)


@pytest.fixture(scope="module")
def workload():
    map1, map2 = paper_maps(scale=0.01)
    trees = {"map1": build_tree(map1), "map2": build_tree(map2)}
    return trees, map1.region.side


def run_chaos(trees, side, *, workers, requests, plan, timeout=10.0):
    config = EngineConfig(
        workers=workers,
        cache_capacity=0,
        faults=plan,
        attempt_timeout_s=0.5,
    )
    sink = ListSink()
    rng = random.Random(7)
    reqs = [
        WindowRequest("map1" if i % 2 else "map2",
                      random_window(rng, side), cacheable=False)
        for i in range(requests)
    ]

    async def main():
        async with Engine(trees, config, sinks=[sink]) as engine:
            responses = await asyncio.gather(
                *(engine.submit(r, timeout) for r in reqs)
            )
            snapshot = engine.snapshot()
            return responses, snapshot

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frontdoor, "MAX_ATTEMPTS", 4)
        responses, snapshot = asyncio.run(main())
    return reqs, responses, snapshot, sink


def assert_deaths_are_exact(snapshot):
    """A fault is decided when a worker takes the call, so every injected
    crash is one death, seen as it happens: the count is exact, and every
    dead or killed (hung past its deadline) worker was replaced."""
    deaths = snapshot["supervisor"]
    assert deaths["crashes_detected"] == snapshot["faults_injected"]["crashes"]
    assert deaths["respawns_detected"] == (
        deaths["crashes_detected"] + deaths["workers_killed"]
    )


def assert_all_green(sink):
    """Every service checker passes on the run's stream, and the
    worker-call spec saw calls: the real crash, hang and slow-I/O streams
    replay through it.  The verdicts, by checker name."""
    verdicts = {
        v.checker: v for v in run_checkers(sink.events, service_checkers())
    }
    assert all(v.ok for v in verdicts.values()), [
        (v.checker, v.violations) for v in verdicts.values() if not v.ok
    ]
    assert verdicts["protocol:worker-call"].stats["instances"] > 0
    return verdicts


@pytest.mark.slow
@pytest.mark.skipif(not fork_available(), reason="needs os.fork")
class TestChaosInvariantForked:
    def test_nothing_lost_nothing_duplicated_everything_reconciled(
        self, workload
    ):
        trees, side = workload
        reqs, responses, snapshot, sink = run_chaos(
            trees, side, workers=2, requests=120, plan=CHAOS_PLAN
        )

        # Zero lost: every submitted request reached a terminal response.
        assert len(responses) == len(reqs)
        terminal = {
            Status.OK, Status.ERROR, Status.TIMEOUT, Status.REJECTED,
        }
        assert all(r.status in terminal for r in responses)

        # Zero duplicated / wrong results: one response per request and
        # every successful answer equals the oracle.
        checked = 0
        for request, response in zip(reqs, responses):
            if response.ok:
                want = tuple(
                    sorted(
                        e.oid
                        for e in window_query(
                            trees[request.tree], request.window
                        )
                    )
                )
                assert response.value == want
                checked += 1
        assert checked > 0

        # Chaos actually happened: faults were injected and survived.
        faults = snapshot["faults_injected"]
        assert faults["crashes"] + faults["hangs"] + faults["slow_ios"] > 0
        assert_deaths_are_exact(snapshot)

        # Every injected fault reconciled, retries within deadlines —
        # the full checker battery agrees.
        assert_all_green(sink)

    def test_crashed_workers_are_respawned(self, workload):
        trees, side = workload
        plan = FaultPlan(seed=99, worker_crash_p=0.25)
        reqs, responses, snapshot, sink = run_chaos(
            trees, side, workers=2, requests=60, plan=plan
        )
        assert snapshot["faults_injected"]["crashes"] > 0
        assert_deaths_are_exact(snapshot)
        # Despite the carnage, work still succeeded after retries.
        assert any(r.ok for r in responses)
        processes = assert_all_green(sink)["protocol:worker-process"]
        assert processes.stats["instances"] > 0


class TestChaosInvariantThreads:
    """Thread-fallback smoke: injected crashes surface as InjectedCrash
    and ride the same retry/ledger machinery — fast enough for tier 1."""

    def test_thread_pool_survives_injected_crashes(self, workload):
        trees, side = workload
        plan = FaultPlan(seed=5, worker_crash_p=0.15, slow_io_p=0.05,
                         slow_io_factor=2.0, slow_io_base_s=0.001)
        reqs, responses, snapshot, sink = run_chaos(
            trees, side, workers=0, requests=80, plan=plan, timeout=5.0
        )
        assert len(responses) == len(reqs)
        assert all(r.status is not None for r in responses)
        assert snapshot["faults_injected"]["crashes"] > 0
        oks = [r for r in responses if r.ok]
        assert oks, "no request survived injected crashes"
        assert_all_green(sink)

    def test_determinism_same_seed_same_faults(self, workload, monkeypatch):
        """Serial submission pins the call order, so one seed replays
        the exact same fault sequence run after run."""
        trees, side = workload
        plan = FaultPlan(seed=21, worker_crash_p=0.2, worker_hang_p=0.1,
                         hang_s=0.01)
        config = EngineConfig(workers=0, cache_capacity=0, faults=plan)
        monkeypatch.setattr(frontdoor, "MAX_ATTEMPTS", 4)
        rng = random.Random(3)
        windows = [random_window(rng, side) for _ in range(30)]

        async def main():
            async with Engine(trees, config) as engine:
                statuses = []
                for window in windows:
                    response = await engine.submit(
                        WindowRequest("map1", window, cacheable=False), 5.0
                    )
                    statuses.append(response.status)
                return statuses, engine.snapshot()["faults_injected"]

        first = asyncio.run(main())
        second = asyncio.run(main())
        assert first == second
