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
   global buffer, and the shared disk array (:class:`SharedMemory`);

plus the **task reassignment** of section 3.4: idle processors steal the
highest-level pending pairs from a victim chosen by policy, buddying up
with it for subsequent steals.

Everything the paper measures falls out: exact disk-access counts,
per-processor finish times (response time = the last one), total busy
time, reassignment counts.  Like the paper's, the machine never fails:
crash recovery belongs to the forked join (:mod:`repro.join.mp`).

The page access and the charge for a dynamic-queue fetch are the only
parts of a run that belong to the machine: a :class:`MachineRun` takes
them from a *pages* policy built for the run, so the shared-nothing
cluster of :mod:`repro.join.shared_nothing` is this simulator with
another policy, and the parallel window and kNN queries of
:mod:`repro.query.parallel` are another workload on the same machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Generator, Optional

from ..buffer.global_buffer import GlobalDirectory
from ..buffer.local import ProcessorBufferManager
from ..geometry.rows import PairTable
from ..rtree.flat import require_node_trees
from ..rtree.node import NodeRows, sort_leaves_by_xl
from ..rtree.pagestore import PageStore
from ..rtree.query import require_count
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
from .tasks import create_tasks

__all__ = ["ParallelJoinConfig", "parallel_spatial_join", "prepare_trees"]

#: How long an idle processor waits before re-checking for stealable work
#: (only while others are still busy), in simulated seconds.
IDLE_RETRY_S = 5e-3

#: The simulated refinement step every candidate pays (section 4.2); a
#: test that wants filter-only timing patches a zero-cost model in here.
REFINEMENT = RefinementModel()


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
    #: Ablation hook: when set, the plane-sweep task order of phase 1 is
    #: destroyed by shuffling with this seed — quantifies how much the
    #: paper's spatial-locality-preserving order is worth.
    shuffle_tasks_seed: Optional[int] = None
    #: Structured event tracing + invariant checking; ``None`` (the
    #: default) keeps the simulator on the null tracer — near-zero cost.
    trace: Optional[TraceConfig] = None


def prepare_trees(tree_r: RStarTree, tree_s: RStarTree) -> PageStore:
    """Sort all node entries by xl (the paper keeps node entries in
    plane-sweep order) and paginate both trees onto one page space.

    A leaf's rows are sorted in the tree's own permutation
    (:func:`~repro.rtree.node.sort_leaves_by_xl`), never in the table the
    tree was built from.  A self-join (``tree_r is tree_s``) paginates
    the tree once and aliases it as both join inputs, so every page
    exists — and is charged — once.
    """
    require_node_trees("prepare_trees", tree_r, tree_s)
    page_store = PageStore()
    _sort_by_xl(tree_r)
    page_store.add_tree(0, tree_r)
    if tree_s is tree_r:
        page_store.alias_tree(1, 0)
        return page_store
    _sort_by_xl(tree_s)
    page_store.add_tree(1, tree_s)
    return page_store


def _sort_by_xl(tree: RStarTree) -> None:
    leaves = []
    for node in tree.nodes():
        if node.level:
            node.sort_entries_by_xl()
        else:
            leaves.append(node)
    sort_leaves_by_xl(leaves)


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
    return _JoinRun(tree_r, tree_s, config, page_store, SharedMemory).execute()


class MachineRun:
    """The set-up every workload on the simulated machine shares: the
    checked machine settings (one ``ValueError`` naming the field and the
    value), the event loop (and tracing, for a *trace*), the KSR1 machine
    and its metrics, the paginated trees and the run's page-access policy.

    *pages* builds that policy from the half-built run (its ``config``,
    ``env``, ``machine``, ``metrics``, ``tracer``, ``store`` and
    ``global_buffer``): ``access(p, tree_id, node)`` reads one page for
    processor *p* and ``fetch(p)`` charges *p*'s next fetch from the
    dynamic queue — both process fragments.
    """

    def __init__(
        self,
        config,
        tree_r: RStarTree,
        tree_s: RStarTree,
        page_store: Optional[PageStore],
        pages,
        *,
        global_buffer: bool,
        trace: Optional[TraceConfig] = None,
    ):
        for name in ("processors", "disks", "total_buffer_pages"):
            require_count(name, getattr(config, name))
        self.config = config
        self.global_buffer = global_buffer
        self.env = Environment()
        self._init_tracing(trace)
        self.machine = Machine(self.env, KSR1_CONFIG)
        self.metrics = self.machine.metrics
        self.store = page_store or prepare_trees(tree_r, tree_s)
        self.pages = pages(self)
        self.times = ProcessorTimes(config.processors)

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
            self._checkers = default_checkers()
            sinks.extend(self._checkers)
        env = self.env
        self.tracer = Tracer(clock=lambda: env.now, sinks=sinks)

    def run_processors(self, body) -> None:
        """Run ``body(p)`` as one simulated process per processor."""
        for p in range(self.config.processors):
            self.env.process(body(p), name=f"P{p}")
        self.env.run()


class SharedMemory:
    """Page access on the SVM machine: each processor's path buffers and
    local LRU, the global buffer directory when the run's
    ``global_buffer`` is set, and the shared disk array (sections 3.2,
    4.2); a queue fetch is one critical section."""

    def __init__(self, run: MachineRun):
        config = run.config
        tracer = run.tracer
        disks = DiskArray(
            run.env, config.disks, DEFAULT_DISK, run.metrics, tracer=tracer
        )
        directory = (
            GlobalDirectory(run.machine, tracer=tracer) if run.global_buffer else None
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


class _JoinRun(MachineRun):
    """State of one join run on the machine (one processor process per
    CPU); *pages* is its page-access policy (see :class:`MachineRun`)."""

    def __init__(
        self,
        tree_r: RStarTree,
        tree_s: RStarTree,
        config: ParallelJoinConfig,
        page_store: Optional[PageStore],
        pages,
    ):
        super().__init__(
            config, tree_r, tree_s, page_store, pages,
            global_buffer=config.variant.buffer is BufferMode.GLOBAL,
            trace=config.trace,
        )
        tracer = self.tracer
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
        #: Each processor reads its pages' rows through its own memo.
        self.node_rows = [NodeRows() for _ in range(n)]
        self.queue: Optional[Store] = None

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

        # Phase 2: task assignment.
        mode = config.variant.assignment
        if mode is AssignmentMode.DYNAMIC:
            self.queue = Store(self.env, name="task-queue")
            for task in tasks:
                self.queue.put(task)
            self.queue.close()
        else:
            if mode is AssignmentMode.STATIC_RANGE:
                split = static_range_assignment(tasks, n)
            else:
                split = static_round_robin_assignment(tasks, n)
            for p, chunk in enumerate(split):
                self.tasks_by_processor[p] = len(chunk)
                for task in chunk:
                    self.workloads[p].push_task(task.node_r, task.node_s)

        # Shared run state.
        self.idle = [False] * n
        self.finished = [False] * n
        self.buddies: list[Optional[int]] = [None] * n
        self.rng = config.reassignment.make_rng()
        #: Each processor's answer as two oid columns, left and right.
        self.oids_by_processor = [([], []) for _ in range(n)]
        self.reassignments = 0

    # ------------------------------------------------------------------ run
    def execute(self) -> ParallelJoinResult:
        self.run_processors(self._processor)
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.RUN_END,
                reassignments=self.reassignments,
                disk_reads=self.metrics.disk_accesses,
                candidates=sum(len(left) for left, _ in self.oids_by_processor),
            )
        return ParallelJoinResult(
            pairs_by_processor=[
                PairTable.from_oids(left, right)
                for left, right in self.oids_by_processor
            ],
            metrics=self.metrics,
            times=self.times,
            tasks_created=self.tasks_created,
            task_level=self.task_level,
            tasks_by_processor=self.tasks_by_processor,
            reassignments=self.reassignments,
            trace=self._finish_trace(),
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
        while True:
            item = workload.pop_deepest()
            if item is None:
                self.idle[p] = True
                got_work = yield from self._acquire_work(p)
                if not got_work:
                    break
                self.idle[p] = False
                continue
            level, node_r, node_s = item
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
            yield from self._process_pair(p, node_r, node_s)
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
        self.finished[p] = True

    def _process_pair(self, p: int, node_r, node_s) -> Generator:
        """Processor *p* reads both pages and runs the node-pair step on
        them: candidates out at the leaves, child pairs onto its workload
        above them."""
        yield from self.pages.access(p, 0, node_r)
        yield from self.pages.access(p, 1, node_s)
        matched, tests = join_node_pair(node_r, node_s, rows=self.node_rows[p])
        self.metrics.add("intersection_tests", tests)
        cpu_time = tests * KSR1_CONFIG.cpu_rect_test_time
        if cpu_time > 0:
            yield self.env.timeout(cpu_time)
        if node_r.is_leaf:
            left, right = self.oids_by_processor[p]
            refine_time = 0.0
            for er, es in matched:  # leaf rows: (xl, yl, xu, yu, oid)
                left.append(er[4])
                right.append(es[4])
                refine_time += REFINEMENT.row_cost(er, es)
            self.metrics.add("candidates", len(matched))
            if refine_time > 0:
                # The same processor that found the candidates refines
                # them (section 3's distribution principle); the exact
                # geometry came along with the data pages (section 4.2).
                yield self.env.timeout(refine_time)
        else:
            workload = self.workloads[p]
            child_level = node_r.level - 1
            for er, es in matched:  # directory rows: (xl, yl, xu, yu, child)
                workload.push_pair(child_level, er[4], es[4])

    # ------------------------------------------------------ work acquisition
    def _acquire_work(self, p: int) -> Generator:
        """Idle processor: dynamic queue first, then task reassignment.

        Returns True when new work landed in the processor's workload,
        False when the join is globally complete.
        """
        policy = self.config.reassignment
        tracer = self.tracer
        while True:
            if self.queue is not None and not (
                self.queue.closed and len(self.queue) == 0
            ):
                yield from self.pages.fetch(p)
                task = yield self.queue.get()
                if task is not None:
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
