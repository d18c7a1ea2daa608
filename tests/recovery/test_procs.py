"""The process substrate: one task to one idle worker, a death is an event.

Driven through its synchronous face (:meth:`PipedWorkers.wait`), as the
forked join drives it; the service drives the same objects through
``loop.add_reader`` and is tested in ``tests/service``.
"""

import ast
import multiprocessing
import os
import re
import signal
import time
from multiprocessing.connection import wait as wait_for_any
from pathlib import Path

import pytest

from repro.faults import CRASH_EXIT_CODE
from repro.recovery.procs import PipedWorkers

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires the fork start method",
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
WAIT_S = 5.0


def work(greeting, payload):
    """What the forked workers run; *payload* is ``(verb, argument)``."""
    verb, arg = payload
    if verb == "echo":
        return f"{greeting} {arg}"
    if verb == "sleep":
        time.sleep(arg)
        return arg
    if verb == "exit":
        os._exit(arg)
    if verb == "blob":
        time.sleep(0.1)  # let the parent go back to waiting first
        return bytes(arg)  # larger than the pipe: send() blocks half-way
    raise KeyError(arg)


class Sink:
    """A task source that records what the substrate tells it; a task is
    its own payload."""

    def __init__(self):
        self.handed = {}  # task -> pid that took it
        self.results = {}  # task -> (ok, value)
        self.deaths = []  # (task, pid, exitcode, killed, replacement pid)

    def handoff(self, task, pid):
        self.handed[task] = pid
        return task

    def done(self, task, ok, value):
        assert task not in self.results, "a task completed twice"
        self.results[task] = (ok, value)

    def died(self, task, pid, exitcode, killed, replacement_pid):
        self.deaths.append((task, pid, exitcode, killed, replacement_pid))


@pytest.fixture
def pool():
    sink = Sink()
    workers = PipedWorkers(2, work, ("hello",), sink)
    workers.start()
    try:
        yield workers, sink
    finally:
        workers.close()
        assert multiprocessing.active_children() == []


def pump(workers, until):
    """Deliver events until *until* holds."""
    deadline = time.monotonic() + WAIT_S
    while not until():
        assert time.monotonic() < deadline, "the awaited event never came"
        workers.wait(0.05)


@needs_fork
def test_tasks_run_on_ready_workers_and_errors_come_back_typed(pool):
    workers, sink = pool
    tasks = [("echo", i) for i in range(5)] + [("raise", "nope")]
    for task in tasks:
        workers.submit(task)
    pump(workers, lambda: len(sink.results) == len(tasks))
    for task in tasks[:5]:
        assert sink.results[task] == (True, f"hello {task[1]}")
    assert sink.results[("raise", "nope")] == (False, ("KeyError", "'nope'"))
    assert set(sink.handed.values()) <= workers.pids()
    assert sink.deaths == []


@needs_fork
@pytest.mark.parametrize("how", ["exit", "sigkill"])
def test_death_fails_exactly_the_task_the_dead_worker_held(pool, how):
    workers, sink = pool
    doomed = ("exit", CRASH_EXIT_CODE) if how == "exit" else ("sleep", 60)
    sibling = ("sleep", 0.3)
    workers.submit(sibling)
    workers.submit(doomed)
    pump(workers, lambda: len(sink.handed) == 2)
    before = workers.pids()
    if how == "sigkill":
        os.kill(sink.handed[doomed], signal.SIGKILL)
    pump(workers, lambda: sink.deaths)
    # The death is reported while the sibling is still at work ...
    assert sibling not in sink.results
    task, pid, exitcode, killed, replacement = sink.deaths[0]
    assert (task, pid) == (doomed, sink.handed[doomed])
    assert exitcode == (
        CRASH_EXIT_CODE if how == "exit" else -signal.SIGKILL
    )
    assert not killed  # nobody dropped it: a crash, not a kill
    assert workers.pids() == before - {pid} | {replacement}
    # ... which completes, and the replacement serves.
    workers.submit(("echo", "again"))
    pump(workers, lambda: len(sink.results) == 2)
    assert sink.results[sibling] == (True, 0.3)
    assert sink.results[("echo", "again")] == (True, "hello again")
    assert len(sink.deaths) == 1


@needs_fork
def test_reply_written_just_before_the_death_still_counts(pool):
    """The pipe is drained before the death is believed: the task
    completes once and the death names no task, so nothing is re-run."""
    workers, sink = pool
    task = ("sleep", 0.1)  # replies once the parent is back to waiting
    workers.submit(task)
    pump(workers, lambda: task in sink.handed)
    (holder,) = [w for w in workers._workers if w.task == task]
    assert holder.conn.poll(WAIT_S)  # the reply is written, not yet read
    os.kill(holder.process.pid, signal.SIGKILL)
    assert wait_for_any([holder.process.sentinel], WAIT_S)
    pump(workers, lambda: sink.deaths)
    assert sink.results == {task: (True, 0.1)}
    assert [death[0] for death in sink.deaths] == [None]


@needs_fork
def test_truncated_send_is_a_death(pool):
    """A worker killed half-way through writing its reply: the parent
    reads a message cut short, and treats it as what it is."""
    workers, sink = pool
    task = ("blob", 8 << 20)
    workers.submit(task)
    pump(workers, lambda: task in sink.handed)
    (holder,) = [w for w in workers._workers if w.task == task]
    assert holder.conn.poll(WAIT_S)  # the first bytes are in the pipe
    os.kill(sink.handed[task], signal.SIGKILL)
    pump(workers, lambda: sink.deaths)
    assert sink.results == {}
    assert sink.deaths[0][:3] == (task, sink.handed[task], -signal.SIGKILL)


@needs_fork
def test_dropped_while_queued_never_reaches_a_worker(pool):
    workers, sink = pool
    busy = [("sleep", 0.2), ("sleep", 0.21)]
    for task in busy:
        workers.submit(task)
    pump(workers, lambda: len(sink.handed) == 2)
    workers.submit(("echo", "cancelled"))
    workers.submit(("echo", "kept"))
    workers.drop(("echo", "cancelled"))
    pump(workers, lambda: len(sink.results) == 3)
    assert ("echo", "cancelled") not in sink.handed
    assert sink.results[("echo", "kept")] == (True, "hello kept")
    assert sink.deaths == []


@needs_fork
def test_dropped_while_held_costs_the_holder_its_life(pool):
    """A hung worker must not keep its slot: dropping a held task kills
    the holder, and that death is a kill that names no task."""
    workers, sink = pool
    hung = ("sleep", 60)
    workers.submit(hung)
    pump(workers, lambda: hung in sink.handed)
    workers.drop(hung)
    pump(workers, lambda: sink.deaths)
    task, pid, exitcode, killed, replacement = sink.deaths[0]
    assert (task, pid, exitcode, killed) == (
        None, sink.handed[hung], -signal.SIGKILL, True
    )
    assert replacement in workers.pids() and pid not in workers.pids()
    assert sink.results == {}


@needs_fork
def test_close_with_a_task_in_flight_returns():
    sink = Sink()
    workers = PipedWorkers(2, work, ("hello",), sink)
    workers.start()
    workers.submit(("sleep", 60))
    workers.submit(("sleep", 61))
    workers.submit(("echo", "queued"))
    pump(workers, lambda: len(sink.handed) == 2)
    workers.close()
    assert multiprocessing.active_children() == []
    assert sink.results == {} and sink.deaths == []


@needs_fork
def test_workers_exit_on_eof_when_the_parents_end_closes(pool):
    """An orphaned worker must not linger: with the parent's end of its
    pipe gone (the parent died), it stops serving and exits cleanly."""
    workers, sink = pool
    pump(workers, lambda: len(workers._idle) == 2)  # both said ready
    orphans = list(workers._workers)
    for worker in orphans:
        worker.conn.close()
    for worker in orphans:
        assert wait_for_any([worker.process.sentinel], WAIT_S)
        worker.process.join(WAIT_S)
        assert worker.process.exitcode == 0


class TestOneSubstrate:
    """Every process this code base forks, it forks here; a second pool
    construction, or a knob of the polling it replaced, is a regression."""

    def calls_named(self, name):
        """File of every call under src/repro to something called *name*."""
        sites = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and name == getattr(
                    node.func, "attr", getattr(node.func, "id", None)
                ):
                    sites.append(path.relative_to(SRC).as_posix())
        return sites

    def test_one_process_site_and_no_pool(self):
        assert self.calls_named("Pool") == []
        # sim/engine.py constructs its own Process class: a simulated
        # processor, not an OS one.
        assert [
            site for site in self.calls_named("Process")
            if site != "sim/engine.py"
        ] == ["recovery/procs.py"]

    def test_the_polling_layer_left_nothing_behind(self):
        gone = re.compile(
            r"\b(supervise|supervisor_interval_s|expire_overdue|_WORK_TREES"
            r"|_fork_init)\b|fork-init"
        )
        assert not (SRC / "service" / "supervisor.py").exists()
        for path in sorted(SRC.rglob("*.py")):
            found = gone.findall(path.read_text(encoding="utf-8"))
            assert not found, (path.relative_to(SRC).as_posix(), found)
        import repro.service

        assert "Supervisor" not in repro.service.__all__
