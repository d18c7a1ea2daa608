"""A small deterministic discrete-event simulation kernel.

The paper ran its experiments on a real KSR1 but already *simulated* the
disk array and the exact-geometry test (section 4.2).  We push the same idea
one level further and simulate the processors too: every simulated processor
executes the real join algorithm as a generator-based process, and only
durations (I/O service times, page copies, lock waits, refinement tests)
advance the simulated clock.  CPython's GIL makes honest 24-way in-process
CPU parallelism impossible, so simulated time is the faithful instrument
for reproducing the paper's response-time and speed-up figures — while
counts such as disk accesses are exact algorithm outputs, not estimates.

The kernel is deliberately SimPy-like:

* :class:`Environment` owns the clock and the event heap,
* a *process* is a generator that ``yield``s events,
* :meth:`Environment.timeout` makes the process sleep in simulated time,
* :mod:`repro.sim.resources` adds FCFS resources (disks, the bus, locks)
  and FIFO stores (the shared task queue of the dynamic assignment).

Determinism: ties in time are broken by a monotone sequence number, so a
given experiment configuration always produces the identical schedule.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator, Optional

__all__ = ["Environment", "Event", "Process", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. negative delays)."""


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, is *triggered* once scheduled with a value,
    and is *processed* after its callbacks ran.  Processes wait for events
    by yielding them; the value the event carries becomes the value of the
    ``yield`` expression.
    """

    __slots__ = ("env", "callbacks", "_value", "_triggered", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self._value = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def value(self):
        if not self._processed:
            raise SimulationError("event value read before the event fired")
        return self._value

    def succeed(self, value=None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire ``delay`` time units from now."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self, delay)
        return self

    def _fire(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self._processed
            else "triggered"
            if self._triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state}>"


class Process(Event):
    """A running generator; also an event that fires when it finishes.

    The generator yields :class:`Event` objects.  When a yielded event
    fires, the process resumes with the event's value.  The value returned
    by the generator (via ``return``) becomes the process's own event value,
    so processes can wait for each other: ``result = yield env.process(g)``.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick the process off at the current simulated time.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    def _resume(self, event: Event) -> None:
        try:
            target = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        if target._processed:
            # Already fired: resume immediately (same timestamp, new slot),
            # preserving deterministic FIFO order.
            resume = Event(self.env)
            resume.callbacks.append(self._resume)
            resume.succeed(target._value)
        else:
            target.callbacks.append(self._resume)


class Environment:
    """Simulation clock, event heap and process factory."""

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self._now + delay, self._sequence, event))
        self._sequence += 1

    def timeout(self, delay: float, value=None) -> Event:
        """An event that fires ``delay`` simulated time units from now."""
        event = Event(self)
        event.succeed(value, delay=delay)
        return event

    def event(self) -> Event:
        """A bare pending event; fire it later with :meth:`Event.succeed`."""
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register *generator* as a process starting now."""
        return Process(self, generator, name=name)

    # -- execution ---------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events in time order.

        Runs until the heap is empty, or — when *until* is given — until the
        next event would fire strictly after *until* (the clock then rests
        exactly at *until*).  Returns the final simulated time.
        """
        while self._heap:
            at, _, event = self._heap[0]
            if until is not None and at > until:
                self._now = until
                return self._now
            heapq.heappop(self._heap)
            self._now = at
            event._fire()
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._heap[0][0] if self._heap else float("inf")
