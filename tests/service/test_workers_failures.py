"""Failure semantics of the worker pool: every call terminates in a
typed outcome — a value or a :class:`WorkerError` — never a silently
pending future (the satellite regression of ``_fail``)."""

import asyncio
import os
import pickle
import signal
import time

import pytest

from repro.analysis.protocol import ProtocolConformanceChecker, get_spec
from repro.datagen import build_tree, paper_maps
from repro.faults import CRASH_EXIT_CODE, FaultInjector, FaultPlan
from repro.service import WorkerError, WorkerPool, fork_available
from repro.trace import EventKind, ListSink, Tracer, run_checkers


@pytest.fixture(scope="module")
def trees():
    map1, _ = paper_maps(scale=0.01)
    return {"map1": build_tree(map1)}


def run_pool(trees, processes, coro_fn, **pool_kwargs):
    async def main():
        pool = WorkerPool(trees, processes, **pool_kwargs)
        pool.start()
        try:
            return await coro_fn(pool)
        finally:
            await pool.close()

    return asyncio.run(main())


async def wait_until(probe, timeout_s=5.0):
    """Poll *probe* until it returns something truthy; return that."""
    deadline = time.monotonic() + timeout_s
    while not (value := probe()):
        assert time.monotonic() < deadline, "condition never became true"
        await asyncio.sleep(0.005)
    return value


class TestWorkerErrorType:
    def test_pickle_round_trip(self):
        error = WorkerError(
            "boom", cause_type="KeyError", call_id=7, kind="knn"
        )
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, WorkerError)
        assert clone.cause_type == "KeyError"
        assert clone.call_id == 7
        assert clone.kind == "knn"
        assert "boom" in str(clone)

    def test_unknown_execution_kind_rejected(self, trees):
        async def body(pool):
            with pytest.raises(KeyError):
                await pool.run("divination", "map1")

        run_pool(trees, 0, body)


class TestThreadModeFailures:
    def test_unknown_tree_is_typed_worker_error(self, trees):
        async def body(pool):
            with pytest.raises(WorkerError) as info:
                await pool.run("knn", "nope", 0.0, 0.0, 3)
            return info.value

        error = run_pool(trees, 0, body)
        assert error.cause_type == "KeyError"
        assert error.kind == "knn"
        assert error.call_id >= 0

    def test_failure_emits_sup_call_failed(self, trees):
        sink = ListSink()
        tracer = Tracer(clock=time.monotonic, sinks=[sink])

        async def body(pool):
            with pytest.raises(WorkerError):
                await pool.run("windows", "nope", [(0, 0, 1, 1)])

        run_pool(trees, 0, body, tracer=tracer)
        failed = [
            e for e in sink.events if e.kind is EventKind.SUP_CALL_FAILED
        ]
        assert len(failed) == 1
        assert failed[0].data["op"] == "windows"
        assert failed[0].data["error"] == "KeyError"


@pytest.mark.slow
@pytest.mark.skipif(not fork_available(), reason="needs os.fork")
class TestForkModeFailures:
    def test_unknown_tree_is_typed_worker_error(self, trees):
        async def body(pool):
            assert pool.forked
            with pytest.raises(WorkerError) as info:
                await pool.run("knn", "nope", 0.0, 0.0, 3)
            return info.value

        error = run_pool(trees, 2, body)
        assert error.cause_type == "KeyError"

    def test_killed_worker_fails_its_call_as_worker_died(self, trees):
        """SIGKILL one worker while its call is in flight: the awaited
        future resolves — as a typed ``worker-died`` WorkerError, at the
        death and not at the deadline — instead of hanging forever (the
        original ``_fail`` bug).  A hang directive pins the call inside
        the worker so the kill is guaranteed to land mid-call."""
        plan = FaultPlan(seed=1, worker_hang_p=1.0, hang_s=30.0)
        injector = FaultInjector(plan)

        async def body(pool):
            call = asyncio.ensure_future(
                pool.run("knn", "map1", 0.5, 0.5, 3, timeout_s=20.0)
            )
            victim = await wait_until(pool.worker_pids)
            await wait_until(lambda: injector.hangs)  # handed to the victim
            os.kill(next(iter(victim)), signal.SIGKILL)
            with pytest.raises(WorkerError) as info:
                await asyncio.wait_for(call, 5.0)
            return info.value, victim, pool.worker_pids()

        error, victim, after = run_pool(trees, 1, body, injector=injector)
        assert error.cause_type == "worker-died"
        assert error.kind == "knn"
        assert after and after.isdisjoint(victim)

    def test_injected_crash_resolves_future(self, trees):
        """A worker dying via os._exit (the injected crash) fails the call
        it held at once — no deadline is waited out."""
        plan = FaultPlan(seed=2, worker_crash_p=1.0)
        injector = FaultInjector(plan)

        async def body(pool):
            with pytest.raises(WorkerError) as info:
                await asyncio.wait_for(
                    pool.run("knn", "map1", 0.5, 0.5, 3, timeout_s=20.0), 5.0
                )
            return info.value

        error = run_pool(trees, 2, body, injector=injector)
        assert error.cause_type == "worker-died"
        assert str(CRASH_EXIT_CODE) in str(error)
        assert injector.crashes == 1

    def test_crashed_worker_without_timeout_uses_pool_default(self, trees):
        """Regression: with ``timeout_s=None`` a fork-mode call used to
        pend forever behind a dead worker (and a draining engine
        deadlocked behind it).  A death now fails the call by itself; the
        pool-level default deadline still bounds a *hung* worker whose
        caller gave none."""
        injector = FaultInjector(FaultPlan(seed=3, worker_crash_p=1.0))

        async def crashed(pool):
            with pytest.raises(WorkerError) as info:
                await asyncio.wait_for(
                    pool.run("knn", "map1", 0.5, 0.5, 3), 5.0  # no timeout
                )
            return info.value

        error = run_pool(trees, 2, crashed, injector=injector)
        assert error.cause_type == "worker-died"

        injector = FaultInjector(
            FaultPlan(seed=3, worker_hang_p=1.0, hang_s=30.0)
        )
        error = run_pool(
            trees, 2, crashed, injector=injector, default_timeout_s=0.2
        )
        assert error.cause_type == "deadline"

    def test_hung_worker_frees_its_slot(self, trees):
        """Regression: a hung worker kept its pool slot after its call was
        failed — with one worker the next healthy call failed ``deadline``
        too and the third waited out the hang.  The deadline now kills
        the holder, so the next call is served by its replacement."""
        injector = FaultInjector(
            FaultPlan(seed=5, worker_hang_p=1.0, hang_s=3.0)
        )

        async def body(pool):
            before = await wait_until(pool.worker_pids)
            with pytest.raises(WorkerError) as info:
                await pool.run("knn", "map1", 0.5, 0.5, 3, timeout_s=0.2)
            pool.injector = None  # healthy from here on
            # Answered inside a deadline shorter than the hang still has
            # to run: not by the hung worker, and not behind it.
            value = await pool.run("knn", "map1", 0.5, 0.5, 3, timeout_s=2.0)
            return info.value, value, before, pool.worker_pids()

        error, value, before, after = run_pool(
            trees, 1, body, injector=injector
        )
        assert error.cause_type == "deadline"
        assert len(value) == 3
        assert after and after.isdisjoint(before)

    def test_dead_worker_fails_only_its_own_call(self, trees):
        """A death is an event, and it names its victim: the dead worker's
        call fails ``worker-died`` at once while the sibling's call, in
        flight at the same moment, completes; the ledger records the
        crash with its call and the respawn."""
        sink = ListSink()
        tracer = Tracer(clock=time.monotonic, sinks=[sink])
        hang = FaultInjector(
            FaultPlan(seed=6, worker_hang_p=1.0, hang_s=0.5), tracer=tracer
        )
        crash = FaultInjector(
            FaultPlan(seed=6, worker_crash_p=1.0), tracer=tracer
        )

        async def body(pool):
            sibling = asyncio.ensure_future(
                pool.run("knn", "map1", 0.5, 0.5, 3, timeout_s=20.0)
            )
            await wait_until(lambda: hang.hangs)  # a worker holds it, asleep
            pool.injector = crash
            with pytest.raises(WorkerError) as info:
                await asyncio.wait_for(
                    pool.run("knn", "map1", 0.5, 0.5, 3, timeout_s=20.0), 5.0
                )
            # Reported at the death (~1 ms), not at any deadline: the
            # sibling's half-second nap is not even over.
            assert not sibling.done()
            value = await asyncio.wait_for(sibling, 5.0)
            return info.value, value, pool

        error, value, pool = run_pool(
            trees, 2, body, injector=hang, tracer=tracer
        )
        assert error.cause_type == "worker-died"
        assert len(value) == 3
        assert (pool.crashes_detected, pool.respawns_detected) == (1, 1)
        assert pool.workers_killed == 0
        crashes = [
            e for e in sink.events
            if e.kind is EventKind.SUP_WORKER_CRASH_DETECTED
        ]
        assert [(e.data["call"], e.data["exitcode"]) for e in crashes] == [
            (error.call_id, CRASH_EXIT_CODE)
        ]
        calls, processes = run_checkers(
            sink.events,
            [
                ProtocolConformanceChecker(get_spec("worker-call")),
                ProtocolConformanceChecker(get_spec("worker-process")),
            ],
        )
        assert processes.ok, processes.violations
        # This test is the pool's caller, and it retries nothing: the
        # victim's worker-died failure is left unanswered, and nothing
        # else may speak.
        assert len(calls.violations) == 1, calls.violations
        assert calls.violations[0].startswith(
            f"worker-call[{error.call_id}]: stream ended in non-terminal "
            f"state 'failing'"
        )

    def test_two_live_pools_keep_their_own_registries(self, trees):
        """Regression: the tree registry used to be a single module
        global, so a second pool's start() clobbered the first's — a
        replacement worker auto-forked by pool A after a crash inherited
        pool B's trees and failed every call it served."""
        _, map2 = paper_maps(scale=0.01)
        trees_b = {"map2": build_tree(map2)}
        # Crash pool A's worker mid-call (os._exit, like a segfault —
        # an idle SIGKILL would die holding the pool's queue lock and
        # wedge the whole pool, which is not the scenario under test).
        plan = FaultPlan(seed=4, worker_crash_p=1.0)

        async def main():
            pool_a = WorkerPool(trees, 1, injector=FaultInjector(plan))
            pool_b = WorkerPool(trees_b, 1)
            pool_a.start()
            pool_b.start()  # parks its registry next to pool A's
            try:
                victims = pool_a.worker_pids()
                with pytest.raises(WorkerError):
                    await pool_a.run(
                        "knn", "map1", 0.5, 0.5, 3, timeout_s=0.5
                    )
                pool_a.injector = None  # healthy from here on
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    pids = pool_a.worker_pids()
                    if pids and pids.isdisjoint(victims):
                        break
                    await asyncio.sleep(0.05)
                a = await pool_a.run(
                    "knn", "map1", 0.5, 0.5, 3, timeout_s=5.0
                )
                b = await pool_b.run(
                    "knn", "map2", 0.5, 0.5, 3, timeout_s=5.0
                )
                return a, b
            finally:
                await pool_a.close()
                await pool_b.close()

        a, b = asyncio.run(main())
        assert len(a) == 3
        assert len(b) == 3

    def test_every_worker_killed_every_call_typed_every_worker_replaced(
        self, trees
    ):
        """SIGKILL every worker with a call in flight on each: each call
        fails typed, each worker is replaced, the next call succeeds."""
        injector = FaultInjector(
            FaultPlan(seed=8, worker_hang_p=1.0, hang_s=30.0)
        )

        async def body(pool):
            calls = [
                asyncio.ensure_future(
                    pool.run("knn", "map1", 0.5, 0.5, 3, timeout_s=20.0)
                )
                for _ in range(2)
            ]
            await wait_until(lambda: injector.hangs == 2)
            before = pool.worker_pids()
            for pid in before:
                os.kill(pid, signal.SIGKILL)
            outcomes = await asyncio.wait_for(
                asyncio.gather(*calls, return_exceptions=True), 5.0
            )
            pool.injector = None
            value = await pool.run("knn", "map1", 0.5, 0.5, 3, timeout_s=5.0)
            return before, pool.worker_pids(), outcomes, value, pool

        before, after, outcomes, value, pool = run_pool(
            trees, 2, body, injector=injector
        )
        assert len(before) == len(after) == 2 and after.isdisjoint(before)
        assert [type(o) for o in outcomes] == [WorkerError, WorkerError]
        assert {o.cause_type for o in outcomes} == {"worker-died"}
        assert len(value) == 3
        assert pool.crashes_detected == pool.respawns_detected == 2

    def test_close_fails_a_call_still_in_flight(self, trees):
        """``close()`` with a call in flight returns, and the call ends
        typed instead of pending forever."""
        injector = FaultInjector(
            FaultPlan(seed=9, worker_hang_p=1.0, hang_s=30.0)
        )

        async def main():
            pool = WorkerPool(trees, 1, injector=injector)
            pool.start()
            held = asyncio.ensure_future(pool.run("knn", "map1", 0.5, 0.5, 3))
            queued = asyncio.ensure_future(pool.run("knn", "map1", 0.5, 0.5, 3))
            await wait_until(lambda: injector.hangs)
            await asyncio.wait_for(pool.close(), 5.0)
            return await asyncio.gather(held, queued, return_exceptions=True)

        outcomes = asyncio.run(main())
        assert [o.cause_type for o in outcomes] == ["pool-closed"] * 2
