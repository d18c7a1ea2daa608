"""Parallel window and nearest-neighbour queries on the SVM machine.

The paper closes with: "we want to integrate the spatial join in a larger
framework for parallel spatial query processing where also other
operations such as neighbor and window queries are efficiently supported"
(section 5).  This module builds that framework piece with the same
machinery as the parallel join:

* **task creation** — the subtrees under root entries qualifying for the
  query, ordered by the local plane-sweep order (window queries) or by
  minimum distance (nearest-neighbour queries);
* **dynamic task assignment** — a shared FCFS queue, the join's winner;
* **task execution** — each simulated processor traverses its subtrees
  through its path buffer, LRU buffer, the SVM global buffer and the
  shared disk array.

For k-nearest-neighbour queries the processors share a *pruning bound*
(the distance of the k-th best candidate so far) through shared virtual
memory: updates are latched and charged the synchronisation cost, reads
are free — the SVM advantage the paper's architecture discussion is about.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Generator, Optional

from ..buffer.global_buffer import GlobalDirectory
from ..buffer.local import ProcessorBufferManager
from ..geometry.rect import Rect
from ..rtree.entry import Entry
from ..rtree.node import Node
from ..rtree.pagestore import PageStore
from ..rtree.query import _min_distance, oid_order_key
from ..sim.engine import Environment
from ..sim.machine import KSR1_CONFIG, Machine
from ..sim.metrics import ProcessorTimes
from ..sim.resources import Lock, Store
from ..storage.disk import DEFAULT_DISK
from ..storage.diskarray import DiskArray

__all__ = [
    "ParallelQueryConfig",
    "ParallelQueryResult",
    "parallel_window_query",
    "parallel_knn",
    "prepare_tree",
]


@dataclass(frozen=True)
class ParallelQueryConfig:
    """Machine setup for one parallel query run."""

    processors: int = 8
    disks: int = 8
    total_buffer_pages: int = 800


@dataclass
class ParallelQueryResult:
    """Entries found, plus the usual machine measurements."""

    entries_by_processor: list[list[Entry]]
    metrics: object
    times: ProcessorTimes

    @property
    def entries(self) -> list[Entry]:
        return [e for chunk in self.entries_by_processor for e in chunk]

    def oid_set(self) -> set:
        return {e.oid for e in self.entries}

    @property
    def disk_accesses(self) -> int:
        return self.metrics.disk_accesses

    @property
    def response_time(self) -> float:
        return self.times.response_time


def prepare_tree(tree) -> PageStore:
    """Sort node entries and paginate a single tree (tree id 0)."""
    page_store = PageStore()
    for node in tree.nodes():
        node.sort_entries_by_xl()
    page_store.add_tree(0, tree)
    return page_store


class _QueryRun:
    """Shared plumbing of window and kNN runs."""

    def __init__(self, tree, config: ParallelQueryConfig, page_store: Optional[PageStore]):
        if config.processors < 1:
            raise ValueError("need at least one processor")
        self.tree = tree
        self.config = config
        self.env = Environment()
        self.machine = Machine(self.env, KSR1_CONFIG)
        self.metrics = self.machine.metrics
        self.disks = DiskArray(self.env, config.disks, DEFAULT_DISK, self.metrics)
        self.store = page_store or prepare_tree(tree)
        directory = GlobalDirectory(self.machine)
        per_processor = max(1, config.total_buffer_pages // config.processors)
        self.managers = [
            ProcessorBufferManager(
                proc_id=p,
                machine=self.machine,
                disk_array=self.disks,
                lru_capacity=per_processor,
                tree_heights=self.store.tree_heights(),
                directory=directory,
            )
            for p in range(config.processors)
        ]
        self.queue = Store(self.env, name="query-tasks")
        self.times = ProcessorTimes(config.processors)
        self.entries_by_processor: list[list[Entry]] = [
            [] for _ in range(config.processors)
        ]

    def access(self, p: int, node: Node) -> Generator:
        yield from self.managers[p].access(
            0, self.store.depth(0, node), node.page_id, self.store.kind(node.page_id)
        )

    def run(self, processor_body) -> ParallelQueryResult:
        for p in range(self.config.processors):
            self.env.process(processor_body(p), name=f"Q{p}")
        self.env.run()
        return ParallelQueryResult(
            entries_by_processor=self.entries_by_processor,
            metrics=self.metrics,
            times=self.times,
        )


# ------------------------------------------------------------- window query
def parallel_window_query(
    tree,
    window: Rect,
    config: ParallelQueryConfig,
    page_store: Optional[PageStore] = None,
) -> ParallelQueryResult:
    """All data entries intersecting *window*, computed in parallel.

    Subtrees under qualifying root entries are the tasks; a shared dynamic
    queue feeds them to the processors in plane-sweep order.
    """
    run = _QueryRun(tree, config, page_store)
    if tree.size > 0:
        root = tree.root
        if root.is_leaf:
            tasks = [root]
        else:
            # xl-sorted entries => plane-sweep task order; descend a level
            # while there are fewer subtrees than processors (the join's
            # task-creation rule, section 3.1).  Pages skipped by the
            # descent were inspected during task creation, like the join's.
            tasks = [e.child for e in root.entries if e.intersects(window)]
            while (
                tasks
                and len(tasks) < config.processors
                and not tasks[0].is_leaf
            ):
                tasks = [
                    entry.child
                    for node in tasks
                    for entry in node.entries
                    if entry.intersects(window)
                ]
        for task in tasks:
            run.queue.put(task)
    run.queue.close()
    cpu_test = KSR1_CONFIG.cpu_rect_test_time

    def processor(p: int) -> Generator:
        # The root page itself is inspected by every processor (it holds
        # the task entries); charge one access each, like the join does
        # implicitly via task creation on processor 0.
        if tree.size > 0 and not tree.root.is_leaf:
            yield from run.access(p, tree.root)
        while True:
            subtree = yield run.queue.get()
            if subtree is None:
                break
            started = run.env.now
            stack = [subtree]
            while stack:
                node = stack.pop()
                yield from run.access(p, node)
                tests = len(node.entries)
                yield run.env.timeout(tests * cpu_test)
                if node.is_leaf:
                    for entry in node.entries:
                        if entry.intersects(window):
                            run.entries_by_processor[p].append(entry)
                else:
                    for entry in reversed(node.entries):
                        if entry.intersects(window):
                            stack.append(entry.child)
            run.times.busy[p] += run.env.now - started
            run.times.finish[p] = run.env.now
        return None

    return run.run(processor)


# ---------------------------------------------------------------------- kNN
def parallel_knn(
    tree,
    x: float,
    y: float,
    k: int,
    config: ParallelQueryConfig,
    page_store: Optional[PageStore] = None,
) -> ParallelQueryResult:
    """The k nearest data entries to ``(x, y)``, computed in parallel.

    Each subtree task runs a best-first search pruned by a *shared* bound:
    the k-th best distance found by anyone so far.  Bound updates go
    through an SVM latch (synchronisation cost); reads are free.  The
    final merge keeps the global k best, so the result equals the
    sequential :func:`repro.rtree.query.nearest_neighbors`.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    run = _QueryRun(tree, config, page_store)
    if tree.size > 0:
        root = tree.root
        if root.is_leaf:
            run.queue.put(root)
        else:
            children = sorted(
                root.entries, key=lambda e: _min_distance(e, x, y)
            )
            for entry in children:
                run.queue.put(entry.child)
    run.queue.close()

    # Shared pruning state: the k best (distance, oid key, sequence, entry)
    # found anywhere, in ascending order, plus the latch guarding updates.
    # Ties at equal distance go to the smaller oid key, as sequentially.
    best: list[tuple] = []
    latch = Lock(run.env, name="knn-bound")
    counter = itertools.count()
    cpu_test = KSR1_CONFIG.cpu_rect_test_time
    sync = KSR1_CONFIG.sync_time

    def bound() -> float:
        return best[-1][0] if len(best) == k else float("inf")

    def offer(entry: Entry, distance: float) -> Generator:
        """Insert a candidate into the shared top-k under the latch."""
        yield latch.acquire()
        try:
            yield run.env.timeout(sync)
            item = (distance, oid_order_key(entry.oid), next(counter), entry)
            if len(best) < k or item < best[-1]:
                bisect.insort(best, item)
                del best[k:]
        finally:
            latch.release()

    def processor(p: int) -> Generator:
        if tree.size > 0 and not tree.root.is_leaf:
            yield from run.access(p, tree.root)
        while True:
            subtree = yield run.queue.get()
            if subtree is None:
                break
            started = run.env.now
            heap: list[tuple[float, int, Node]] = [(0.0, 0, subtree)]
            tiebreak = 1
            while heap:
                node_distance, _, node = heapq.heappop(heap)
                if node_distance > bound():
                    continue  # pruned by the shared bound (free SVM read)
                yield from run.access(p, node)
                yield run.env.timeout(len(node.entries) * cpu_test)
                if node.is_leaf:
                    for entry in node.entries:
                        distance = _min_distance(entry, x, y)
                        if distance <= bound():
                            yield from offer(entry, distance)
                else:
                    for entry in node.entries:
                        distance = _min_distance(entry, x, y)
                        if distance <= bound():
                            heapq.heappush(heap, (distance, tiebreak, entry.child))
                            tiebreak += 1
            run.times.busy[p] += run.env.now - started
            run.times.finish[p] = run.env.now
        return None

    result = run.run(processor)
    result.entries_by_processor = [[item[-1] for item in best]]
    return result
