"""The one process substrate: forked workers on pipes, a death is an event.

The paper's winning scheme (``gd``) is one loop — an idle processor takes
the next task from one shared queue.  :class:`PipedWorkers` is that loop
for real OS processes, and the only place in the code base that forks
one: the forked join (:mod:`repro.join.mp`) and every serving pool
(:mod:`repro.service.workers`, hence every shard replica) are *task
sources* of it.

* N ``fork``-context :class:`~multiprocessing.Process` workers, each on
  its own duplex :func:`~multiprocessing.Pipe`.  A worker's state (the
  trees, the join plan, a shared progress array) is passed as
  ``Process(args=...)``, so fork inherits it copy-on-write with nothing
  pickled and nothing parked in a module global.
* The parent keeps the one FIFO and hands **one task to one idle
  worker** — a worker says *ready* before it is given work — so the
  parent can always name who holds what, and the owner's attempt / lease
  clock starts at hand-off (``sink.handoff``), never while queued.
* The parent listens on every result pipe **and** every
  ``Process.sentinel``: blocked in :meth:`wait`
  (``multiprocessing.connection.wait``) in the join, through
  ``loop.add_reader`` (:meth:`watch`) in the service.  A death — the
  sentinel, or EOF / a truncated message on the pipe, after every reply
  already written has been drained and delivered — fails exactly the task
  that worker held, at once (``sink.died``), and a replacement is forked.
* :meth:`drop` forgets a task: one still queued leaves the FIFO without
  touching a worker; one that is held costs its holder its life (a hung
  worker must not keep its slot), which then is an ordinary death that
  names no task.

The *sink* is the task source.  It implements ``handoff(task, pid) ->
payload`` (the message for the worker; grant the lease / start the
timer here), ``done(task, ok, value)`` (*value* is the worker function's
return, or ``(exception type name, message)`` when it raised) and
``died(task, pid, exitcode, killed, replacement_pid)`` (*task* is None
for an idle or dropped holder, *killed* tells a :meth:`drop` from a
crash, *replacement_pid* is None when nothing was forked in its place).
All three run in the parent, inside :meth:`wait` or a reader callback —
``died`` also inside :meth:`close`, for a dropped worker whose death was
not reaped yet.
"""

from __future__ import annotations

import multiprocessing
import signal
from collections import deque
from multiprocessing.connection import wait as wait_for_any

__all__ = ["PipedWorkers", "fork_available"]


def fork_available() -> bool:
    """Whether this platform has the ``fork`` start method the workers need."""
    return "fork" in multiprocessing.get_all_start_methods()


def _serve(conn, inherited, work, state) -> None:
    """Worker body: say ready, then answer one task at a time until the
    parent's end of the pipe closes."""
    for parent_end in inherited:
        # Fork copied the parent's ends of every pipe (this worker's own
        # included); holding them would keep a sibling from ever seeing
        # EOF when the parent goes away.
        parent_end.close()
    try:
        conn.send(None)  # ready
        while True:
            task = conn.recv()
            try:
                reply = (True, work(*state, task))
            except Exception as exc:  # typed back to the caller, worker lives
                reply = (False, (type(exc).__name__, str(exc)))
            conn.send(reply)
    except (EOFError, OSError):
        pass  # the parent is gone or closed the pipe: nobody left to serve


class _Worker:
    __slots__ = ("process", "conn", "task", "killed")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.task = None  # what this worker holds, None while idle
        self.killed = False  # drop() sent SIGKILL


class PipedWorkers:
    """*processes* forked workers running ``work(*state, payload)``.

    A fresh worker is ready the moment it is forked, so *state* must
    hold nothing that is built on first use: a task's clock runs from
    hand-off, and a cold start under load reads as a hang.
    """

    def __init__(self, processes: int, work, state: tuple, sink):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self._context = multiprocessing.get_context("fork")
        self._processes = processes
        self._work = work
        self._state = state
        self._sink = sink
        self._workers: list[_Worker] = []
        self._idle: deque[_Worker] = deque()
        self._queue: deque = deque()
        self._loop = None

    # -- life cycle ------------------------------------------------------------
    def start(self) -> None:
        for _ in range(self._processes):
            self._spawn()

    def _spawn(self) -> _Worker:
        parent_end, child_end = self._context.Pipe()
        inherited = [w.conn for w in self._workers] + [parent_end]
        process = self._context.Process(
            target=_serve,
            args=(child_end, inherited, self._work, self._state),
            daemon=True,
        )
        process.start()
        child_end.close()
        worker = _Worker(process, parent_end)
        self._workers.append(worker)
        if self._loop is not None:
            self._watch(worker)
        return worker

    def close(self) -> None:
        """Kill every worker and forget every task.  Whoever still waits on
        a task is the sink's to fail; the one death reported is a worker
        :meth:`drop` killed that was not reaped yet — killed, with no
        replacement — so no kill goes uncounted."""
        self._queue.clear()
        self._idle.clear()
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.process.kill()
        for worker in workers:
            self._release(worker)
        for worker in workers:
            if worker.killed:
                process = worker.process
                self._sink.died(None, process.pid, process.exitcode, True, None)

    def _release(self, worker: _Worker) -> None:
        if self._loop is not None:
            self._loop.remove_reader(worker.conn.fileno())
            self._loop.remove_reader(worker.process.sentinel)
        worker.conn.close()
        worker.process.join()

    def pids(self) -> frozenset[int]:
        return frozenset(w.process.pid for w in self._workers)

    # -- tasks -----------------------------------------------------------------
    def submit(self, task) -> None:
        """Queue *task* (any hashable the sink knows it by)."""
        self._queue.append(task)
        self._pump()

    def drop(self, task) -> None:
        """Forget *task*: unqueue it, or kill the worker that holds it."""
        try:
            self._queue.remove(task)
            return
        except ValueError:
            pass
        for worker in self._workers:
            if worker.task == task:
                worker.task = None
                worker.killed = True
                worker.process.kill()  # reaped when its sentinel fires
                return

    def _pump(self) -> None:
        while self._queue and self._idle:
            worker = self._idle.popleft()
            worker.task = task = self._queue.popleft()
            payload = self._sink.handoff(task, worker.process.pid)
            try:
                worker.conn.send(payload)
            except OSError:
                pass  # died idle: its sentinel reports it, holding *task*

    # -- events ----------------------------------------------------------------
    def wait(self, timeout: float) -> None:
        """Block until some worker has something to say — a reply, or its
        death — or *timeout* seconds pass; deliver it to the sink."""
        watched = {}
        for worker in self._workers:
            watched[worker.conn] = watched[worker.process.sentinel] = worker
        ready = wait_for_any(list(watched), timeout)
        for worker in dict.fromkeys(watched[obj] for obj in ready):
            self._service(worker)

    def watch(self, loop) -> None:
        """Deliver events from *loop*'s reader callbacks from now on
        (the asyncio twin of :meth:`wait`, on the same objects)."""
        self._loop = loop
        for worker in self._workers:
            self._watch(worker)

    def _watch(self, worker: _Worker) -> None:
        self._loop.add_reader(worker.conn.fileno(), self._service, worker)
        self._loop.add_reader(worker.process.sentinel, self._service, worker)

    def _service(self, worker: _Worker) -> None:
        if worker not in self._workers:
            return  # pipe and sentinel both fired; already reaped
        try:
            # Drain first: a reply written just before the death counts.
            while worker.conn.poll():
                reply = worker.conn.recv()
                task, worker.task = worker.task, None
                if not worker.killed:  # a dropped holder never idles again
                    self._idle.append(worker)
                if reply is not None and task is not None:
                    self._sink.done(task, *reply)
                self._pump()
            if worker.process.is_alive():
                return
        except (EOFError, OSError):
            pass  # EOF, or a message cut short: the writer is dead
        self._reap(worker)

    def _reap(self, worker: _Worker) -> None:
        self._workers.remove(worker)
        if worker in self._idle:
            self._idle.remove(worker)
        self._release(worker)
        exitcode = worker.process.exitcode
        replacement = self._spawn()
        self._sink.died(
            worker.task,
            worker.process.pid,
            exitcode,
            worker.killed and exitcode == -signal.SIGKILL,
            replacement.process.pid,
        )
        self._pump()
