"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Environment, SimulationError


class TestTimeout:
    def test_clock_advances(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(5)
            log.append(env.now)
            yield env.timeout(2.5)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [5.0, 7.5]

    def test_timeout_value_passed_through(self):
        env = Environment()
        got = []

        def proc():
            value = yield env.timeout(1, value="hello")
            got.append(value)

        env.process(proc())
        env.run()
        assert got == ["hello"]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_zero_delay_allowed(self):
        env = Environment()
        fired = []

        def proc():
            yield env.timeout(0)
            fired.append(env.now)

        env.process(proc())
        env.run()
        assert fired == [0.0]


class TestOrdering:
    def test_events_fire_in_time_order(self):
        env = Environment()
        order = []

        def proc(name, delay):
            yield env.timeout(delay)
            order.append(name)

        env.process(proc("late", 10))
        env.process(proc("early", 1))
        env.process(proc("mid", 5))
        env.run()
        assert order == ["early", "mid", "late"]

    def test_simultaneous_events_fifo(self):
        # Equal timestamps resolve in scheduling order — determinism.
        env = Environment()
        order = []

        def proc(name):
            yield env.timeout(3)
            order.append(name)

        for name in "abcde":
            env.process(proc(name))
        env.run()
        assert order == list("abcde")

    def test_deterministic_repetition(self):
        def run_once():
            env = Environment()
            order = []

            def proc(name, delays):
                for d in delays:
                    yield env.timeout(d)
                order.append((name, env.now))

            env.process(proc("a", [1, 2, 1]))
            env.process(proc("b", [2, 2]))
            env.process(proc("c", [4]))
            env.run()
            return order

        assert run_once() == run_once()


class TestProcess:
    def test_return_value_becomes_event_value(self):
        env = Environment()
        results = []

        def child():
            yield env.timeout(2)
            return 42

        def parent():
            value = yield env.process(child())
            results.append((env.now, value))

        env.process(parent())
        env.run()
        assert results == [(2.0, 42)]

    def test_wait_on_already_finished_process(self):
        env = Environment()
        results = []

        def child():
            yield env.timeout(1)
            return "done"

        def parent(proc):
            yield env.timeout(5)  # child finished long ago
            value = yield proc
            results.append((env.now, value))

        child_proc = env.process(child())
        env.process(parent(child_proc))
        env.run()
        assert results == [(5.0, "done")]

    def test_yielding_non_event_raises(self):
        env = Environment()

        def bad():
            yield "not an event"

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_immediate_return_process(self):
        env = Environment()
        results = []

        def empty():
            return 7
            yield  # pragma: no cover - makes it a generator

        def parent():
            value = yield env.process(empty())
            results.append(value)

        env.process(parent())
        env.run()
        assert results == [7]


class TestBareEvents:
    def test_manual_succeed_wakes_waiter(self):
        env = Environment()
        signal = env.event()
        log = []

        def waiter():
            value = yield signal
            log.append((env.now, value))

        def firer():
            yield env.timeout(4)
            signal.succeed("go")

        env.process(waiter())
        env.process(firer())
        env.run()
        assert log == [(4.0, "go")]

    def test_double_succeed_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_value_before_fire_rejected(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_value_after_fire(self):
        env = Environment()
        ev = env.event()
        ev.succeed(9)
        env.run()
        assert ev.value == 9


class TestRunUntil:
    def test_stops_at_horizon(self):
        env = Environment()
        log = []

        def proc():
            while True:
                yield env.timeout(10)
                log.append(env.now)

        env.process(proc())
        final = env.run(until=35)
        assert final == 35.0
        assert log == [10.0, 20.0, 30.0]
        assert env.now == 35.0

    def test_resume_after_horizon(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(10)
            log.append(env.now)

        env.process(proc())
        env.run(until=5)
        assert log == []
        env.run()
        assert log == [10.0]

    def test_until_beyond_last_event(self):
        env = Environment()

        def quick():
            yield env.timeout(1)

        env.process(quick())
        assert env.run(until=100) == 100.0

    def test_peek(self):
        env = Environment()
        assert env.peek() == float("inf")

        def proc():
            yield env.timeout(7)

        env.process(proc())
        # The bootstrap event is at t=0.
        assert env.peek() == 0.0
