"""Real CPU-parallel join via ``multiprocessing`` (GIL workaround).

The simulation of :mod:`repro.join.parallel` reproduces the paper's
*measurements*; this module demonstrates genuine parallel execution on
today's hardware despite CPython's GIL.  There is **one** forked driver,
and it follows the paper's own finding that dynamic assignment from a
shared queue beats static ranges: phase 1 produces a backend-neutral
*join plan* (:func:`plan_join`), the plan is cut into lease-sized
*chunks*, and the chunks are the tasks of the one process substrate
(:class:`~repro.recovery.procs.PipedWorkers`): an idle worker is handed
the next chunk off one FIFO.

A plan hides the task *format* from the driver: ``len(plan)`` tasks and
``plan.run(start, stop, beat)`` for the pairs of one slice.  The node
plan is the :func:`~repro.join.tasks.create_tasks` list (one
:func:`~repro.join.sequential.depth_first_join` per task, the walk of
``sequential_join``); the flat plan (:mod:`repro.join.flat`) is the packed
backend's frontier (one vectorized kernel call per slice).

Workers are forked with the plan — the in-memory R*-trees or the packed
arrays — as their start argument, so they inherit it from the parent
without any serialisation: the process-level analogue of the paper's
shared virtual memory.  Only chunk bounds travel to the workers and only
the two oid columns of a chunk's :class:`~repro.geometry.rows.PairTable`
travel back — raw buffers on the pipe, concatenated once at the end;
no row is pickled, unpickled or re-listed on the way.

**Fault tolerance** (:mod:`repro.recovery`) is not a mode but how the
driver works: one lease per chunk, granted when the chunk is handed to a
worker (a queued chunk has no clock to run out), and kept alive by
heartbeats on a fork-inherited lock-free progress counter — a running
chunk beats at every node pair, frontier round, refined piece and shipped
table, so a healthy join may outlast ``lease_s`` by any factor without
losing a lease.  A worker death is an event, not a timeout: the substrate reports
it at once, naming the chunk the worker held; that lease expires
(``reason="died"``) and the chunk is requeued, so a death loses at most
one chunk's partial work.  A *silent* worker is expired by its lease and
killed — it never keeps its slot — and its chunk requeued.  The driver
alone owns each chunk's lease and result, and the substrate delivers no
reply from a holder it killed, so each chunk commits exactly once.  A
dead *parent* loses the join; it is rerun from scratch, which costs no
more than any resume could save.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import warnings
from collections import deque
from typing import Optional

from ..faults import CRASH_EXIT_CODE, FaultInjector, FaultPlan
from ..geometry.rows import PairTable
from ..recovery.config import RecoveryConfig, wall_clock
from ..recovery.procs import PipedWorkers, fork_available
from ..rtree.query import require_count
from ..rtree.rstar import RStarTree
from ..trace import NULL_TRACER, EventKind, Tracer
from .flat import _FlatJoinPlan, packed_pair
from .refinement import ExactRefinement
from .sequential import depth_first_join
from .tasks import create_tasks

__all__ = [
    "multiprocessing_join",
    "fault_tolerant_join",
    "plan_join",
]

#: Rows a worker refines between two heartbeats.
_PIECE_ROWS = 1 << 12
#: Expired leases one chunk may take before the parent runs it inline
#: instead of redispatching — progress even with a wedged pool.
MAX_REDISPATCH = 5


def _chunk_tasks(n_tasks: int, processes: int) -> int:
    """Tasks per lease-sized chunk: a quarter of one worker's share, so a
    worker death loses that much instead of its whole range."""
    return max(1, math.ceil(n_tasks / (4 * processes)))


class _NodeJoinPlan:
    """Join plan of the pointer backend: the :func:`create_tasks` list in
    local plane-sweep order, one subtree join per task."""

    def __init__(self, tree_r, tree_s, min_tasks: int):
        self.tasks = create_tasks(tree_r, tree_s, min_tasks=min_tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def run(self, start: int, stop: int, beat=None) -> PairTable:
        """Candidate pairs of tasks ``[start, stop)``, made a table here —
        in the worker, ahead of the pipe; *beat* (the heartbeat) is called
        at every node pair, so a lease survives a task that runs longer
        than ``lease_s``."""
        left: list = []
        right: list = []
        for task in self.tasks[start:stop]:
            depth_first_join(task.node_r, task.node_s, left, right, beat=beat)
        return PairTable.from_oids(left, right)


def plan_join(tree_r, tree_s, min_tasks: int):
    """Phase 1 for the forked driver: the one place that picks a backend.

    Two packed trees join on their arrays, two node trees on the
    :func:`create_tasks` list; a mixed pair is a ``ValueError``.
    """
    if packed_pair(tree_r, tree_s):
        return _FlatJoinPlan(tree_r, tree_s, min_tasks)
    return _NodeJoinPlan(tree_r, tree_s, min_tasks)


def _chunk_pairs(work: tuple, start: int, stop: int, beat=None) -> PairTable:
    """Result rows of plan slice ``[start, stop)``: the filter step, then
    the exact refinement when geometry was given — the paper's
    distribution principle, the processor that finds a candidate refines
    it — with a heartbeat every ``_PIECE_ROWS`` candidates."""
    plan, geometry_r, geometry_s = work
    pairs = plan.run(start, stop, beat)
    if geometry_r is None:
        return pairs
    refinement = ExactRefinement(geometry_r, geometry_s)
    answers: list = []
    for lo in range(0, len(pairs), _PIECE_ROWS):
        answers += refinement.filter_answers(pairs[lo : lo + _PIECE_ROWS])
        if beat is not None:
            beat()
    return PairTable.from_pairs(answers)


def _run_chunk(work: tuple, progress, spec: tuple) -> tuple[int, PairTable]:
    """Worker body: one chunk of the plan.

    *work* is ``(plan, geometry_r, geometry_s)`` and *progress* the
    heartbeat channel, both inherited at fork: one monotone counter per
    chunk in a lock-free ``RawArray`` — a worker hard-killed mid-bump
    cannot wedge anybody.

    ``kill_at`` is a parent-computed fault directive (offset of the task
    at whose *start* this execution hard-crashes, or None): the decision
    ledger lives in the parent's injector, so a redispatched chunk is
    never re-killed at the same task.  The doomed execution still runs
    (and heartbeats) the tasks before the offset, then calls ``os._exit``.
    Returns the chunk id and the chunk's table; the pipe moves its two
    column buffers, so shipping is no long silent stretch to beat through.
    """
    chunk_id, start, stop, kill_at = spec

    def beat() -> None:
        progress[chunk_id] += 1  # this worker's cell only

    beat()  # started: from here on silence costs the lease
    if kill_at is not None:
        work[0].run(start, start + kill_at, beat)
        os._exit(CRASH_EXIT_CODE)
    rows = _chunk_pairs(work, start, stop, beat)
    beat()  # one per shipped table
    return chunk_id, rows


def multiprocessing_join(
    tree_r: RStarTree,
    tree_s: RStarTree,
    processes: Optional[int] = None,
    *,
    geometry_r=None,
    geometry_s=None,
    recovery: Optional[RecoveryConfig] = None,
    faults: Optional[FaultPlan] = None,
    tracer: Tracer = NULL_TRACER,
) -> PairTable:
    """Spatial join using *processes* OS processes.

    Without geometry, returns the candidate pairs of the filter step
    (one :class:`~repro.geometry.rows.PairTable`; identical, as a set, to
    :func:`repro.join.sequential.sequential_join`).  With ``geometry_r``
    and ``geometry_s`` (oid → point-tuple mappings), every worker also
    runs the exact refinement on the candidates it produced.  Both
    backends run the same chunked, lease-monitored driver — this is
    :func:`fault_tolerant_join` without the statistics; see there for
    ``processes``, ``recovery`` and ``faults``.  Runs
    the chunks inline in the parent when ``processes`` is 1 or fork is
    unavailable.
    """
    pairs, _stats = fault_tolerant_join(
        tree_r,
        tree_s,
        processes,
        geometry_r=geometry_r,
        geometry_s=geometry_s,
        recovery=recovery,
        faults=faults,
        tracer=tracer,
    )
    return pairs


# --------------------------------------------------------------------------
# The chunked, lease-monitored engine
# --------------------------------------------------------------------------


class _Engine:
    """One forked join: chunking, leases, redispatch.

    The parent is the coordinator and the substrate's *sink*, and it alone
    owns each chunk's life.  A chunk a worker holds is in ``inflight``
    under its lease id and deadline: granted at hand-off, renewed when the
    fork-inherited progress counter moved, completed by the chunk's result
    (kept in ``results``), and expired by a death, a raise or a passed
    deadline — then the chunk is requeued (inline in the parent after
    :data:`MAX_REDISPATCH` strikes: guaranteed progress whatever the
    workers do).  The substrate never delivers a reply from a holder it
    killed, so every chunk completes once.
    """

    def __init__(
        self,
        plan,
        geometry_r,
        geometry_s,
        processes: int,
        recovery: RecoveryConfig,
        faults: Optional[FaultPlan],
        tracer: Tracer,
    ):
        self.work = (plan, geometry_r, geometry_s)
        n_tasks = len(plan)
        self.processes = processes
        self.recovery = recovery
        self.tracer = tracer
        self.clock = wall_clock()
        self.injector = (
            FaultInjector(faults, tracer=tracer)
            if faults is not None and faults.active
            else None
        )
        chunk = _chunk_tasks(n_tasks, processes)
        self.n_chunks = math.ceil(n_tasks / chunk)
        self.bounds = [
            (cid * chunk, min(n_tasks, (cid + 1) * chunk))
            for cid in range(self.n_chunks)
        ]
        self.pending: deque = deque(range(self.n_chunks))
        self.redispatches = {cid: 0 for cid in range(self.n_chunks)}
        self.inline_runs = 0
        self.expired = 0
        self._lease_ids = itertools.count()
        self._last_progress = [0] * self.n_chunks
        self._progress = None  # the heartbeat RawArray of a forked run
        #: chunk a worker holds -> (lease id, deadline)
        self.inflight: dict[int, tuple[int, float]] = {}
        self.results: dict[int, PairTable] = {}  # chunk -> its rows

    # -- the lease of one chunk ------------------------------------------------
    def _grant(self, cid: int) -> None:
        lease_id = next(self._lease_ids)
        deadline = self.clock() + self.recovery.lease_s
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.LSE_GRANTED,
                proc=cid, task=cid, lease=lease_id, deadline=deadline,
            )
        self.inflight[cid] = (lease_id, deadline)

    def _renew(self, cid: int) -> None:
        lease_id = self.inflight[cid][0]
        deadline = self.clock() + self.recovery.lease_s
        self.inflight[cid] = (lease_id, deadline)
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.LSE_RENEWED,
                proc=cid, task=cid, lease=lease_id, deadline=deadline,
            )

    def _complete(self, cid: int, rows: PairTable) -> None:
        lease_id = self.inflight.pop(cid)[0]
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.LSE_COMPLETED,
                proc=cid, task=cid, lease=lease_id, rows=len(rows),
            )
        self.results[cid] = rows

    def _expire(self, cid: int, reason: str) -> None:
        """Chunk *cid* lost its worker: expire its lease, requeue it."""
        lease_id = self.inflight.pop(cid)[0]
        self.expired += 1
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.LSE_EXPIRED,
                proc=cid, task=cid, lease=lease_id, reason=reason,
            )
            self.tracer.emit(EventKind.LSE_REQUEUED, task=cid, lease=lease_id)
        self.redispatches[cid] += 1
        self.pending.append(cid)

    # -- chunk execution -------------------------------------------------------
    def _kill_directive(self, cid: int) -> Optional[int]:
        """Offset within chunk *cid* at which this dispatch must crash,
        or None.  Decided parent-side so the injector's fire-once ledger
        spans redispatches."""
        if self.injector is None:
            return None
        start, stop = self.bounds[cid]
        for offset, index in enumerate(range(start, stop)):
            if self.injector.should_kill_at_task(index, proc=cid):
                return offset
        return None

    def _run_inline(self, cid: int) -> None:
        """Execute one chunk in the parent (serial path / last resort)."""
        self._grant(cid)
        rows = _chunk_pairs(self.work, *self.bounds[cid])
        self.inline_runs += 1
        self._complete(cid, rows)

    # -- main loops ------------------------------------------------------------
    def run_serial(self) -> None:
        while self.pending:
            self._run_inline(self.pending.popleft())

    def run_parallel(self) -> None:
        context = multiprocessing.get_context("fork")
        self._progress = context.RawArray("Q", max(1, self.n_chunks))
        workers = PipedWorkers(
            self.processes, _run_chunk, (self.work, self._progress), self
        )
        workers.start()
        try:
            self._coordinate(workers)
        finally:
            workers.close()

    def _coordinate(self, workers: PipedWorkers) -> None:
        while len(self.results) < self.n_chunks:
            if self.pending:
                cid = self.pending.popleft()
                if self.redispatches[cid] > MAX_REDISPATCH:
                    # Too many strikes: stop trusting the workers with
                    # this chunk and finish it in the parent.
                    self._run_inline(cid)
                else:
                    workers.submit(cid)
                continue
            # Results and deaths arrive as events (handoff/done/died
            # below); block until the first or the sweep interval.
            workers.wait(self.recovery.sweep_s)
            # Heartbeats: a progress counter that moved renews the lease.
            for cid in self.inflight:
                current = self._progress[cid]
                if current != self._last_progress[cid]:
                    self._last_progress[cid] = current
                    self._renew(cid)
            # Sweep: silence past the deadline costs the holder its life
            # (a hung worker must not keep its slot) and requeues the chunk.
            now = self.clock()
            for cid in [c for c, (_, end) in self.inflight.items() if end < now]:
                workers.drop(cid)
                self._expire(cid, "deadline")

    # -- the substrate's sink --------------------------------------------------
    def handoff(self, cid: int, pid: int) -> tuple:
        """An idle worker takes chunk *cid*: its lease clock starts now."""
        kill_at = self._kill_directive(cid)
        self._grant(cid)
        self._last_progress[cid] = self._progress[cid]
        return (cid, *self.bounds[cid], kill_at)

    def done(self, cid: int, ok: bool, value) -> None:
        if ok:
            self._complete(cid, value[1])
        else:  # the worker raised (not crashed)
            self._expire(cid, "error")

    def died(self, cid, pid, exitcode, killed, replacement_pid) -> None:
        if cid is not None:  # None: idle, or killed by the sweep above
            self._expire(cid, "died")

    # -- results ---------------------------------------------------------------
    def finish(self) -> tuple[PairTable, dict]:
        pairs = PairTable.concat(self.results[cid] for cid in sorted(self.results))
        redispatches = sum(self.redispatches.values())
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.RUN_END,
                candidates=len(pairs),
                chunks=self.n_chunks,
                redispatches=redispatches,
            )
        stats = {
            "chunks": self.n_chunks,
            "redispatches": redispatches,
            "inline_runs": self.inline_runs,
            "expired": self.expired,
            "tasks_committed": len(self.results),
        }
        if self.injector is not None:
            stats["fault_counts"] = self.injector.counts()
        return pairs, stats


def fault_tolerant_join(
    tree_r: RStarTree,
    tree_s: RStarTree,
    processes: Optional[int] = None,
    *,
    geometry_r=None,
    geometry_s=None,
    recovery: Optional[RecoveryConfig] = None,
    faults: Optional[FaultPlan] = None,
    tracer: Tracer = NULL_TRACER,
) -> tuple[PairTable, dict]:
    """The chunked lease-monitored join; returns ``(pairs, stats)``.

    ``pairs`` is the exactly-once result multiset as one table, grouped by
    ascending chunk id (deterministic given the task list).  ``stats``
    counts ``chunks``, ``tasks_committed``, ``redispatches``, ``expired``
    leases and ``inline_runs``, plus the injector's ``fault_counts``.

    A dead worker's chunk is requeued the moment it dies, and a hung
    worker is killed when its chunk's lease expires; after
    :data:`MAX_REDISPATCH` strikes the parent runs the chunk inline, so
    the caller always gets the answer.  ``faults`` injects worker kills.
    ``processes`` must be an integer >= 1 (default: the CPU count, at
    most 8).
    """
    if (geometry_r is None) != (geometry_s is None):
        raise ValueError("pass geometry for both relations or for neither")
    if processes is None:
        processes = min(8, os.cpu_count() or 1)
    else:
        require_count("processes", processes)
    plan = plan_join(tree_r, tree_s, processes * 4)
    engine = _Engine(
        plan,
        geometry_r,
        geometry_s,
        processes,
        recovery or RecoveryConfig(),
        faults,
        tracer,
    )
    if not engine.pending:
        return engine.finish()
    if processes == 1 or not fork_available():
        if processes > 1:
            warnings.warn(
                "the 'fork' start method is unavailable on this "
                "platform (spawn-only); fault_tolerant_join runs "
                "chunks inline in the parent",
                RuntimeWarning,
                stacklevel=2,
            )
        engine.run_serial()
    else:
        engine.run_parallel()
    return engine.finish()
