"""Parallel spatial join on the simulated SVM machine (paper section 3).

One :func:`parallel_spatial_join` call runs the complete three-phase
algorithm for a given configuration:

1. **task creation** — pairs of intersecting root entries in local
   plane-sweep order (descending a level when too few, section 3.1);
2. **task assignment** — static range (``lsr``), static round-robin
   (``gsrr``) or dynamic via a shared FCFS queue (``gd``);
3. **parallel task execution** — every simulated processor runs the real
   BKS93 depth-first join on its pairs of subtrees, with page accesses
   going through its path buffers and local LRU buffer, optionally the SVM
   global buffer, and the shared disk array (:class:`_SharedMemory`);

plus the **task reassignment** of section 3.4: idle processors steal the
highest-level pending pairs from a victim chosen by policy, buddying up
with it for subsequent steals.

Everything the paper measures falls out: exact disk-access counts,
per-processor finish times (response time = the last one), total busy
time, reassignment counts.

The page access and the charge for a dynamic-queue fetch are the only
parts of a run that belong to the machine: :class:`_JoinRun` takes them
from a *pages* policy built for the run, so the shared-nothing cluster of
:mod:`repro.join.shared_nothing` is this simulator with another policy.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional

from ..buffer.global_buffer import GlobalDirectory
from ..buffer.local import ProcessorBufferManager
from ..faults import FaultInjector, FaultPlan
from ..recovery.config import RecoveryConfig
from ..recovery.journal import JoinJournal
from ..recovery.lease import LeaseTable
from ..recovery.ledger import ResultLedger
from ..rtree.flat import require_node_trees
from ..rtree.pagestore import PageStore
from ..rtree.rstar import RStarTree
from ..sim.engine import Environment
from ..sim.machine import KSR1_CONFIG, Machine
from ..sim.metrics import ProcessorTimes
from ..sim.resources import Store
from ..storage.disk import DEFAULT_DISK
from ..storage.diskarray import DiskArray
from ..trace import (
    NULL_TRACER,
    EventKind,
    JSONLSink,
    ListSink,
    TraceConfig,
    TraceHandle,
    Tracer,
    default_checkers,
    recovery_checkers,
)
from .assignment import (
    GD,
    AssignmentMode,
    BufferMode,
    JoinVariant,
    static_range_assignment,
    static_round_robin_assignment,
)
from .reassign import ReassignmentPolicy, VictimChoice, Workload
from .refinement import RefinementModel
from .result import ParallelJoinResult
from .sequential import join_node_pair
from .tasks import create_tasks, task_signature

__all__ = ["ParallelJoinConfig", "parallel_spatial_join", "prepare_trees"]

#: How long an idle processor waits before re-checking for stealable work
#: (only while others are still busy), in simulated seconds.
IDLE_RETRY_S = 5e-3


@dataclass(frozen=True)
class ParallelJoinConfig:
    """Everything that parametrises one experiment run."""

    processors: int = 8
    disks: int = 8
    #: Total LRU buffer size in pages, split evenly over the processors
    #: (the paper's Figure 5 x-axis).
    total_buffer_pages: int = 800
    variant: JoinVariant = GD
    #: Its ``seed`` seeds the run's one random choice (an arbitrary victim).
    reassignment: ReassignmentPolicy = field(default_factory=ReassignmentPolicy)
    #: None disables the simulated refinement step (pure filter timing).
    refinement: Optional[RefinementModel] = field(default_factory=RefinementModel)
    #: Ablation hook: when set, the plane-sweep task order of phase 1 is
    #: destroyed by shuffling with this seed — quantifies how much the
    #: paper's spatial-locality-preserving order is worth.
    shuffle_tasks_seed: Optional[int] = None
    #: Structured event tracing + invariant checking; ``None`` (the
    #: default) keeps the simulator on the null tracer — near-zero cost.
    trace: Optional[TraceConfig] = None
    #: Seeded fault plan (slow disks, buffered-page bit flips); ``None``
    #: keeps every seam on the zero-cost healthy path.  Worker crash and
    #: hang probabilities are meaningless inside the simulation (there is
    #: no OS process per simulated processor) and are ignored here; the
    #: task-kill knobs (``task_kill_p``/``kill_at_task``/
    #: ``kill_processor_at_event``) additionally require ``recovery``,
    #: since a dead processor only makes sense once leases exist to
    #: reclaim its work.
    faults: Optional[FaultPlan] = None
    #: Lease-based fault tolerance (:mod:`repro.recovery`): every task
    #: execution holds a heartbeat-renewed lease, expired leases requeue
    #: their task as an orphan, completions are deduplicated into an
    #: exactly-once result multiset, and — when ``journal_path`` is set —
    #: a durable journal makes the run resumable across process deaths.
    #: ``None`` (the default) keeps the join exactly as before.
    recovery: Optional[RecoveryConfig] = None


def prepare_trees(tree_r: RStarTree, tree_s: RStarTree) -> PageStore:
    """Sort all node entries by xl (the paper keeps node entries in
    plane-sweep order) and paginate both trees onto one page space.

    A self-join (``tree_r is tree_s``) paginates the tree once and aliases
    it as both join inputs, so every page exists — and is charged — once.
    """
    require_node_trees("prepare_trees", tree_r, tree_s)
    page_store = PageStore()
    for node in tree_r.nodes():
        node.sort_entries_by_xl()
    page_store.add_tree(0, tree_r)
    if tree_s is tree_r:
        page_store.alias_tree(1, 0)
        return page_store
    for node in tree_s.nodes():
        node.sort_entries_by_xl()
    page_store.add_tree(1, tree_s)
    return page_store


def parallel_spatial_join(
    tree_r: RStarTree,
    tree_s: RStarTree,
    config: ParallelJoinConfig,
    page_store: Optional[PageStore] = None,
) -> ParallelJoinResult:
    """Run one parallel spatial join and return its measurements.

    ``page_store`` may be passed when the trees were already prepared by
    :func:`prepare_trees` (sharing it across runs avoids re-sorting;
    buffers always start cold regardless).
    """
    require_node_trees("parallel_spatial_join", tree_r, tree_s)
    return _JoinRun(tree_r, tree_s, config, page_store, _SharedMemory).execute()


class _SharedMemory:
    """Page access on the SVM machine: each processor's path buffers and
    local LRU, the global buffer directory for the ``g*`` variants and the
    shared disk array (sections 3.2, 4.2); a queue fetch is one critical
    section."""

    def __init__(self, run: "_JoinRun"):
        config = run.config
        tracer = run.tracer
        disks = DiskArray(
            run.env, config.disks, DEFAULT_DISK, run.metrics,
            tracer=tracer, injector=run.injector,
        )
        integrity = None
        if run.injector is not None and config.faults.page_flip_p > 0:
            from ..storage.page import PageIntegrityStore

            integrity = PageIntegrityStore(run.store, tracer=tracer)
        directory = (
            GlobalDirectory(run.machine, tracer=tracer)
            if config.variant.buffer is BufferMode.GLOBAL
            else None
        )
        n = config.processors
        heights = run.store.tree_heights()
        self.managers = [
            ProcessorBufferManager(
                proc_id=p,
                machine=run.machine,
                disk_array=disks,
                lru_capacity=max(1, config.total_buffer_pages // n),
                tree_heights=heights,
                directory=directory,
                tracer=tracer,
                integrity=integrity,
                injector=run.injector,
            )
            for p in range(n)
        ]
        self.store = run.store
        self.env = run.env

    def access(self, p: int, tree_id: int, node) -> Generator:
        store = self.store
        return self.managers[p].access(
            tree_id, store.depth(tree_id, node), node.page_id, store.kind(node.page_id)
        )

    def fetch(self, p: int) -> Generator:
        yield self.env.timeout(KSR1_CONFIG.sync_time)


class _JoinRun:
    """State of one simulation run (one processor process per CPU).

    *pages* builds the run's page-access policy from the half-built run
    (its ``config``, ``env``, ``machine``, ``metrics``, ``tracer``,
    ``injector`` and ``store``): ``access(p, tree_id, node)`` reads one
    page for processor *p* and ``fetch(p)`` charges *p*'s next fetch from
    the dynamic queue — both process fragments.
    """

    def __init__(
        self,
        tree_r: RStarTree,
        tree_s: RStarTree,
        config: ParallelJoinConfig,
        page_store: Optional[PageStore],
        pages,
    ):
        if config.processors < 1:
            raise ValueError("need at least one processor")
        self.config = config
        self.env = Environment()
        self._init_tracing(config.trace)
        tracer = self.tracer
        self.machine = Machine(self.env, KSR1_CONFIG)
        self.metrics = self.machine.metrics
        self.injector = (
            FaultInjector(config.faults, tracer=tracer)
            if config.faults is not None and config.faults.active
            else None
        )
        self.store = page_store or prepare_trees(tree_r, tree_s)
        self.pages = pages(self)
        n = config.processors

        # Phase 1: task creation (sequential; CPU share negligible per
        # section 4.5, and the root pages it touches are re-read through
        # the buffers during execution).
        tasks = create_tasks(tree_r, tree_s, min_tasks=n)
        if config.shuffle_tasks_seed is not None:
            random.Random(config.shuffle_tasks_seed).shuffle(tasks)
        self.tasks_created = len(tasks)
        self.task_level = tasks[0].level if tasks else 0
        self.workloads = [
            Workload(self.task_level, owner=p, tracer=tracer) for p in range(n)
        ]
        self.tasks_by_processor = [0] * n
        self.queue: Optional[Store] = None

        # Recovery layer (leases + exactly-once ledger + durable journal).
        rec = config.recovery
        self.lease_table: Optional[LeaseTable] = None
        self.ledger: Optional[ResultLedger] = None
        self.journal: Optional[JoinJournal] = None
        self.orphans: deque = deque()
        self.dead = [False] * n
        self._orphans_requeued = 0
        self._replayed_tids: list[int] = []
        if rec is not None:
            env = self.env
            self.lease_table = LeaseTable(
                clock=lambda: env.now,
                lease_s=rec.lease_s,
                heartbeat_s=rec.heartbeat_s,
                tracer=tracer,
            )
            self.ledger = ResultLedger(tracer=tracer)
            self._task_objs = dict(enumerate(tasks))
            # Attempt bookkeeping: an *attempt* is one execution of a task,
            # identified by its primary lease id.  Thieves hold split
            # leases on the same attempt; any expiry kills the whole
            # attempt (its buffered rows and pending pairs everywhere).
            self._attempt_tid: dict[int, int] = {}
            self._attempt_rows: dict[int, list] = {}
            self._attempt_outstanding: dict[int, int] = {}
            self._attempt_pairs: dict[int, set] = {}
            self._attempt_splits: dict[int, set] = {}
            self._split_primary: dict[int, int] = {}
            self._pair_attempt: dict[tuple, int] = {}
            if rec.journal_path is not None:
                self.journal = JoinJournal(
                    rec.journal_path,
                    tracer=tracer,
                    injector=self.injector,
                    fsync=rec.fsync,
                )
                self._load_journal(tasks)

        if tracer.enabled:
            policy = config.reassignment
            tracer.emit(
                EventKind.RUN_START,
                processors=n,
                disks=config.disks,
                buffer_pages=config.total_buffer_pages,
                variant=config.variant.short_name,
                buffer=config.variant.buffer.value,
                assignment=config.variant.assignment.value,
                reassign_level=policy.level.value,
                victim=policy.victim.value,
                min_pairs=policy.min_pairs,
                task_level=self.task_level,
                tasks=self.tasks_created,
            )
            for index, task in enumerate(tasks):
                tracer.emit(
                    EventKind.TASK_CREATED,
                    index=index,
                    level=task.level,
                    r=task.node_r.page_id,
                    s=task.node_s.page_id,
                )

        # Phase 2: task assignment.  Queue items and static chunks carry
        # ``(task_id, task)`` so the recovery layer can key leases and
        # journal records by a stable task id; tasks the ledger replayed
        # from a journal are already done and are not assigned at all.
        mode = config.variant.assignment
        pending = [
            (tid, task)
            for tid, task in enumerate(tasks)
            if self.ledger is None or tid not in self.ledger
        ]
        if mode is AssignmentMode.DYNAMIC:
            self.queue = Store(self.env, name="task-queue")
            for item in pending:
                self.queue.put(item)
            self.queue.close()
        else:
            if mode is AssignmentMode.STATIC_RANGE:
                split = static_range_assignment(pending, n)
            else:
                split = static_round_robin_assignment(pending, n)
            for p, chunk in enumerate(split):
                self.tasks_by_processor[p] = len(chunk)
                for tid, task in chunk:
                    if tracer.enabled:
                        tracer.emit(
                            EventKind.TASK_ASSIGNED,
                            proc=p,
                            level=task.level,
                            r=task.node_r.page_id,
                            s=task.node_s.page_id,
                            mode=mode.value,
                        )
                    if self.lease_table is not None:
                        self._grant_task(tid, task, p)
                    else:
                        self.workloads[p].push_task(task.node_r, task.node_s)

        # Shared run state.
        self.times = ProcessorTimes(n)
        self.idle = [False] * n
        self.finished = [False] * n
        self.buddies: list[Optional[int]] = [None] * n
        self.rng = config.reassignment.make_rng()
        self.pairs_by_processor: list[list] = [[] for _ in range(n)]
        self.reassignments = 0

    def _init_tracing(self, trace_config: Optional[TraceConfig]) -> None:
        """Wire the event bus: recording/JSONL sinks plus online checkers."""
        self._record_sink: Optional[ListSink] = None
        self._jsonl_sink: Optional[JSONLSink] = None
        self._checkers = []
        if trace_config is None:
            self.tracer = NULL_TRACER
            return
        sinks: list = []
        if trace_config.keep_events:
            self._record_sink = ListSink()
            sinks.append(self._record_sink)
        if trace_config.jsonl_path is not None:
            self._jsonl_sink = JSONLSink(trace_config.jsonl_path)
            sinks.append(self._jsonl_sink)
        if trace_config.checkers:
            # Lease-enabled runs legitimately re-execute killed tasks, so
            # the one-execution-per-pair conservation law does not hold;
            # recovery_checkers() swaps it for the recovery accounting law.
            self._checkers = (
                recovery_checkers()
                if self.config.recovery is not None
                else default_checkers()
            )
            sinks.extend(self._checkers)
        env = self.env
        self.tracer = Tracer(clock=lambda: env.now, sinks=sinks)
        env.tracer = self.tracer

    # ------------------------------------------------------------------ run
    def execute(self) -> ParallelJoinResult:
        for p in range(self.config.processors):
            self.env.process(self._processor(p), name=f"P{p}")
        if self.lease_table is not None:
            self.env.process(self._lease_sweeper(), name="lease-sweeper")
        self.env.run()
        replayed_pairs: list = []
        recovery_summary = None
        if self.lease_table is not None:
            for tid in self._replayed_tids:
                replayed_pairs.extend(self.ledger.rows_for(tid))
            recovery_summary = {
                "complete": len(self.ledger) >= self.tasks_created,
                "orphans_requeued": self._orphans_requeued,
                **self.ledger.stats(),
                **self.lease_table.stats(),
            }
            if self.journal is not None:
                self.journal.close()
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.RUN_END,
                reassignments=self.reassignments,
                disk_reads=self.metrics.disk_accesses,
                candidates=sum(len(p) for p in self.pairs_by_processor)
                + len(replayed_pairs),
            )
        return ParallelJoinResult(
            pairs_by_processor=self.pairs_by_processor,
            metrics=self.metrics,
            times=self.times,
            tasks_created=self.tasks_created,
            task_level=self.task_level,
            tasks_by_processor=self.tasks_by_processor,
            reassignments=self.reassignments,
            trace=self._finish_trace(),
            replayed_pairs=replayed_pairs,
            recovery=recovery_summary,
        )

    def _finish_trace(self) -> Optional[TraceHandle]:
        """Close sinks and collect checker verdicts into the handle."""
        if not self.tracer.enabled:
            return None
        verdicts = [checker.finish() for checker in self._checkers]
        self.tracer.close()
        return TraceHandle(
            events=self._record_sink.events if self._record_sink else [],
            verdicts=verdicts,
            jsonl_path=(
                self.config.trace.jsonl_path if self.config.trace else None
            ),
            events_emitted=self.tracer.events_emitted,
        )

    # -------------------------------------------------------- processor loop
    def _processor(self, p: int) -> Generator:
        workload = self.workloads[p]
        recovery = self.lease_table is not None
        while True:
            if recovery:
                self.lease_table.renew_holder(p)
            item = workload.pop_deepest()
            if item is None:
                self.idle[p] = True
                got_work = yield from self._acquire_work(p)
                if not got_work:
                    break
                self.idle[p] = False
                continue
            level, node_r, node_s = item
            aid = None
            key = None
            if recovery:
                key = (node_r.page_id, node_s.page_id)
                aid = self._pair_attempt.get(key)
                if aid is None or not self.lease_table.is_active(aid):
                    # The pair belonged to an attempt that expired while it
                    # was in steal transit — its task has been requeued.
                    self.metrics.add("stale_pairs_dropped")
                    continue
                if (
                    level == self.task_level
                    and self.injector is not None
                    and self.injector.should_kill_at_task(
                        self._attempt_tid[aid], proc=p
                    )
                ):
                    self._die(p)
                    return
            started = self.env.now
            tracer = self.tracer
            if tracer.enabled:
                tracer.emit(
                    EventKind.EXEC_START,
                    proc=p,
                    level=level,
                    r=node_r.page_id,
                    s=node_s.page_id,
                )
            yield from self._process_pair(p, node_r, node_s, aid)
            if tracer.enabled:
                tracer.emit(
                    EventKind.EXEC_END,
                    proc=p,
                    level=level,
                    r=node_r.page_id,
                    s=node_s.page_id,
                )
            self.times.busy[p] += self.env.now - started
            # Response time is defined by the last processor *computing*
            # (section 4.5); idle waiting at the very end does not count.
            self.times.finish[p] = self.env.now
            if recovery:
                self._finish_pair(p, aid, key)
        self.finished[p] = True

    def _process_pair(self, p: int, node_r, node_s, aid=None) -> Generator:
        """Processor *p* reads both pages and runs the node-pair step on
        them: candidates out at the leaves, child pairs onto its workload
        above them."""
        config = self.config
        yield from self.pages.access(p, 0, node_r)
        yield from self.pages.access(p, 1, node_s)
        matched, tests = join_node_pair(node_r, node_s)
        self.metrics.add("intersection_tests", tests)
        cpu_time = tests * KSR1_CONFIG.cpu_rect_test_time
        if cpu_time > 0:
            yield self.env.timeout(cpu_time)
        if node_r.is_leaf:
            if aid is not None:
                # Rows of a leased attempt stay buffered until the whole
                # attempt completes, then commit exactly once through the
                # ledger; a None sink means the attempt expired mid-pair.
                my_pairs = self._attempt_rows.get(aid)
            else:
                my_pairs = self.pairs_by_processor[p]
            refine_time = 0.0
            for er, es in matched:
                if my_pairs is not None:
                    my_pairs.append((er.oid, es.oid))
                if config.refinement is not None:
                    refine_time += config.refinement.cost(er, es)
            self.metrics.add("candidates", len(matched))
            if refine_time > 0:
                # The same processor that found the candidates refines
                # them (section 3's distribution principle); the exact
                # geometry came along with the data pages (section 4.2).
                if aid is None:
                    yield self.env.timeout(refine_time)
                else:
                    # A long refinement must not outlive the lease: sleep
                    # in heartbeat-sized slices, renewing between them.
                    heartbeat = self.lease_table.heartbeat_s
                    remaining = refine_time
                    while remaining > 0:
                        step = min(remaining, heartbeat)
                        yield self.env.timeout(step)
                        remaining -= step
                        self.lease_table.renew_holder(p)
        else:
            workload = self.workloads[p]
            child_level = node_r.level - 1
            for er, es in matched:
                if aid is not None and not self._register_child(
                    aid, er.child, es.child
                ):
                    continue
                workload.push_pair(child_level, er.child, es.child)

    # ------------------------------------------------------ work acquisition
    def _acquire_work(self, p: int) -> Generator:
        """Idle processor: dynamic queue first, then task reassignment.

        Returns True when new work landed in the processor's workload,
        False when the join is globally complete.
        """
        policy = self.config.reassignment
        tracer = self.tracer
        while True:
            if self.lease_table is not None:
                # Heartbeat: an idle processor may still hold leases (a
                # thief took all its pairs); letting them lapse would
                # needlessly kill the thief's in-flight attempt.
                self.lease_table.renew_holder(p)
                if self.orphans:
                    tid = self.orphans.popleft()
                    task = self._task_objs[tid]
                    if tracer.enabled:
                        tracer.emit(
                            EventKind.TASK_ASSIGNED,
                            proc=p,
                            level=task.level,
                            r=task.node_r.page_id,
                            s=task.node_s.page_id,
                            mode="requeue",
                        )
                    self._grant_task(tid, task, p)
                    self.tasks_by_processor[p] += 1
                    self.metrics.add("orphan_grants")
                    return True
            if self.queue is not None and not (
                self.queue.closed and len(self.queue) == 0
            ):
                yield from self.pages.fetch(p)
                item = yield self.queue.get()
                if item is not None:
                    tid, task = item
                    if tracer.enabled:
                        tracer.emit(
                            EventKind.TASK_ASSIGNED,
                            proc=p,
                            level=task.level,
                            r=task.node_r.page_id,
                            s=task.node_s.page_id,
                            mode=AssignmentMode.DYNAMIC.value,
                        )
                    if self.lease_table is not None:
                        self._grant_task(tid, task, p)
                    else:
                        self.workloads[p].push_task(task.node_r, task.node_s)
                    self.tasks_by_processor[p] += 1
                    self.metrics.add("queue_fetches")
                    return True
            if policy.enabled:
                if tracer.enabled:
                    tracer.emit(EventKind.STEAL_REQUESTED, proc=p)
                victim = self._pick_victim(p)
                if victim is not None:
                    level = self.workloads[victim].stealable_level(policy.level, policy.min_pairs)
                    stolen = self.workloads[victim].steal_from(level, thief=p)
                    if stolen:
                        if tracer.enabled:
                            tracer.emit(
                                EventKind.STEAL_GRANTED,
                                proc=p,
                                victim=victim,
                                level=level,
                                count=len(stolen),
                            )
                        yield self.env.timeout(KSR1_CONFIG.reassign_overhead)
                        for node_r, node_s in stolen:
                            self.workloads[p].push_pair(level, node_r, node_s)
                        if self.lease_table is not None:
                            self._grant_split_leases(p, stolen)
                        if tracer.enabled and self.buddies[p] != victim:
                            tracer.emit(
                                EventKind.BUDDY_FORMED, proc=p, buddy=victim
                            )
                        self.buddies[p] = victim
                        self.buddies[victim] = p
                        self.reassignments += 1
                        self.metrics.add("reassignments")
                        self.metrics.add("pairs_reassigned", len(stolen))
                        return True
                elif tracer.enabled:
                    tracer.emit(EventKind.STEAL_DENIED, proc=p)
            if self.lease_table is not None:
                # Even with reassignment disabled a lease-enabled run must
                # keep waiting: leases held by dead processors will expire
                # and their tasks re-appear on the orphan queue.
                if self._recovery_done():
                    return False
                yield self.env.timeout(IDLE_RETRY_S)
                continue
            if policy.enabled and not self._join_finished():
                # Others are still busy and may produce stealable
                # pairs; check again shortly (the "waiting periods"
                # the paper observes in the final phase).
                yield self.env.timeout(IDLE_RETRY_S)
                continue
            return False

    def _pick_victim(self, p: int) -> Optional[int]:
        policy = self.config.reassignment
        candidates = [
            q
            for q in range(self.config.processors)
            if q != p and self.workloads[q].stealable_level(policy.level, policy.min_pairs) is not None
        ]
        if not candidates:
            return None
        buddy = self.buddies[p]
        if buddy in candidates:
            return buddy
        if policy.victim is VictimChoice.ARBITRARY:
            return self.rng.choice(candidates)
        # Highest expected workload: highest level with pending pairs
        # (hl), most pairs there (ns) — the (hl, ns) report of section 3.4.
        return max(candidates, key=lambda q: self.workloads[q].highest_pending())

    def _join_finished(self) -> bool:
        """No task, pending pair or busy processor left anywhere."""
        if self.queue is not None and len(self.queue) > 0:
            return False
        for q in range(self.config.processors):
            if not self.workloads[q].empty:
                return False
            if not self.idle[q] and not self.finished[q]:
                return False
        return True

    # ------------------------------------------------------- recovery layer
    def _load_journal(self, tasks) -> None:
        """Adopt completed tasks from an existing journal (resume path)."""
        scan = self.journal.existing
        sig = task_signature(tasks)
        meta = scan.meta
        if meta is None:
            self.journal.append(
                "meta", mode="sim", tasks=len(tasks), signature=sig
            )
        elif meta.get("signature") != sig or meta.get("tasks") != len(tasks):
            raise ValueError(
                "journal does not match this join: it records "
                f"{meta.get('tasks')} tasks with signature "
                f"{meta.get('signature')!r}, the trees produce "
                f"{len(tasks)} with {sig!r}"
            )
        for tid, record in sorted(scan.completions().items()):
            rows = [tuple(row) for row in record.get("rows", ())]
            self.ledger.replay(tid, rows)
            self._replayed_tids.append(tid)

    def _grant_task(self, tid: int, task, p: int) -> None:
        """Grant the primary lease for one task execution (an *attempt*)
        and enqueue its root pair on processor *p*'s workload."""
        lease = self.lease_table.grant(tid, holder=p)
        aid = lease.id
        self._attempt_tid[aid] = tid
        self._attempt_rows[aid] = []
        self._attempt_outstanding[aid] = 0
        self._attempt_pairs[aid] = set()
        self._attempt_splits[aid] = set()
        if self.journal is not None:
            self.journal.append("grant", task=tid, lease=aid, proc=p)
        self._register_pair(aid, task.node_r, task.node_s)
        self.workloads[p].push_task(task.node_r, task.node_s)

    def _register_pair(self, aid: int, node_r, node_s) -> None:
        key = (node_r.page_id, node_s.page_id)
        self._pair_attempt[key] = aid
        self._attempt_pairs[aid].add(key)
        self._attempt_outstanding[aid] += 1

    def _register_child(self, aid: int, node_r, node_s) -> bool:
        """Attribute a child pair to its attempt; False when the attempt
        expired mid-execution (the child must not be enqueued)."""
        if not self.lease_table.is_active(aid):
            return False
        self._register_pair(aid, node_r, node_s)
        return True

    def _grant_split_leases(self, p: int, stolen) -> None:
        """After a steal lands, grant thief *p* a split lease on every
        attempt it now carries pairs of (unless it already holds one)."""
        attempts = set()
        for node_r, node_s in stolen:
            aid = self._pair_attempt.get((node_r.page_id, node_s.page_id))
            if aid is not None and self.lease_table.is_active(aid):
                attempts.add(aid)
        for aid in attempts:
            tid = self._attempt_tid[aid]
            if self.lease_table.find_active(tid, p) is not None:
                continue
            split = self.lease_table.grant(tid, holder=p, split=True)
            self._attempt_splits[aid].add(split.id)
            self._split_primary[split.id] = aid

    def _finish_pair(self, p: int, aid: int, key: tuple) -> None:
        """One pair of an attempt fully processed; complete the attempt
        when it was the last outstanding one."""
        if not self.lease_table.is_active(aid):
            return  # expired mid-execution; results already discarded
        self._attempt_pairs[aid].discard(key)
        if self._pair_attempt.get(key) == aid:
            del self._pair_attempt[key]
        self._attempt_outstanding[aid] -= 1
        if self._attempt_outstanding[aid] == 0:
            self._complete_attempt(p, aid)

    def _complete_attempt(self, p: int, aid: int) -> None:
        tid = self._attempt_tid[aid]
        rows = self._attempt_rows.pop(aid, [])
        self._attempt_outstanding.pop(aid, None)
        self._attempt_pairs.pop(aid, None)
        self.lease_table.complete(aid, rows=len(rows))
        for sid in self._attempt_splits.pop(aid, ()):
            self._split_primary.pop(sid, None)
            if self.lease_table.is_active(sid):
                self.lease_table.complete(sid, rows=0)
        if self.ledger.commit(tid, rows, lease=aid, proc=p):
            self.pairs_by_processor[p].extend(rows)
            if self.journal is not None:
                self.journal.append(
                    "complete",
                    task=tid,
                    lease=aid,
                    proc=p,
                    rows=[list(row) for row in rows],
                )

    def _die(self, p: int) -> None:
        """Processor *p* crashes: it stops renewing and never runs again.
        Its pending pairs stay in its workload until the sweeper expires
        its leases and purges them."""
        self.dead[p] = True
        self.finished[p] = True

    def _expire_attempt(self, aid: int) -> None:
        """Tear an attempt down after any of its leases expired: close the
        sibling leases, discard buffered rows, withdraw its pending pairs
        from every workload, and requeue the task as an orphan."""
        if aid not in self._attempt_outstanding:
            return  # already completed or torn down (sibling expiry)
        if self.lease_table.is_active(aid):
            self.lease_table.expire(aid, reason="attempt")
        for sid in self._attempt_splits.pop(aid, ()):
            self._split_primary.pop(sid, None)
            if self.lease_table.is_active(sid):
                self.lease_table.expire(sid, reason="attempt")
        keys = self._attempt_pairs.pop(aid, set())
        removed = 0
        for workload in self.workloads:
            removed += workload.purge_keys(keys)
        if removed:
            self.metrics.add("pairs_purged", removed)
        for key in keys:
            if self._pair_attempt.get(key) == aid:
                del self._pair_attempt[key]
        self._attempt_rows.pop(aid, None)
        self._attempt_outstanding.pop(aid, None)
        tid = self._attempt_tid.pop(aid)
        self.orphans.append(tid)
        self._orphans_requeued += 1
        self.metrics.add("orphans_requeued")
        if self.tracer.enabled:
            self.tracer.emit(EventKind.LSE_REQUEUED, task=tid, lease=aid)

    def _lease_sweeper(self) -> Generator:
        """Background process: periodically expire overdue leases and
        requeue their tasks until every task committed (or nobody is left
        to run them — the journal then carries the orphans to a resume)."""
        rec = self.config.recovery
        while len(self.ledger) < self.tasks_created:
            if all(self.finished):
                # Every processor dead or retired; expire what is left so
                # the trace reconciles, then let the run end incomplete.
                for lease in list(self.lease_table.active_leases()):
                    aid = self._split_primary.get(lease.id, lease.id)
                    self._expire_attempt(aid)
                return
            yield self.env.timeout(rec.sweep_s)
            for lease in self.lease_table.sweep():
                aid = (
                    self._split_primary.get(lease.id, lease.id)
                    if lease.split
                    else lease.id
                )
                self._expire_attempt(aid)

    def _recovery_done(self) -> bool:
        """Whether an idle processor may retire for good: everything
        committed, or every *other* processor is dead/retired too (the
        remaining orphans then need a resumed run)."""
        if len(self.ledger) >= self.tasks_created:
            return True
        return all(
            self.dead[q] or self.finished[q]
            for q in range(self.config.processors)
        )
