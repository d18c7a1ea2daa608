"""Parallel window and nearest-neighbour queries on the SVM machine.

The paper closes with: "we want to integrate the spatial join in a larger
framework for parallel spatial query processing where also other
operations such as neighbor and window queries are efficiently supported"
(section 5).  This module builds that framework piece as another
workload on the parallel join's machine
(:class:`~repro.join.parallel.MachineRun` with the
:class:`~repro.join.parallel.SharedMemory` page policy, global buffer on):

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
from dataclasses import dataclass
from typing import Callable, Generator, Optional

from ..geometry.rect import Rect
from ..join.parallel import MachineRun, SharedMemory
from ..rtree.entry import Entry
from ..rtree.node import Node
from ..rtree.pagestore import PageStore
from ..rtree.query import (
    _min_distance,
    coordinate_error,
    require_k,
    require_window,
)
from ..sim.machine import KSR1_CONFIG
from ..sim.metrics import ProcessorTimes
from ..sim.resources import Lock, Store

__all__ = [
    "ParallelQueryConfig",
    "ParallelQueryResult",
    "parallel_window_query",
    "parallel_knn",
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


def _machine(tree, config: ParallelQueryConfig, page_store) -> MachineRun:
    """The join simulator's machine with the global buffer on; the tree is
    both inputs of a self-join store, paginated once as tree 0."""
    return MachineRun(config, tree, tree, page_store, SharedMemory, global_buffer=True)


def _run_tasks(
    run: MachineRun, tree, tasks: list[Node], search: Callable[[int, Node], Generator]
) -> None:
    """Feed *tasks* to the processors through a shared FCFS queue; each
    runs ``search(p, subtree)`` on the subtrees it fetches."""
    queue = Store(run.env, name="query-tasks")
    for task in tasks:
        queue.put(task)
    queue.close()

    def processor(p: int) -> Generator:
        # The root page itself is inspected by every processor (it holds
        # the task entries); charge one access each, like the join does
        # implicitly via task creation on processor 0.
        if tree.size > 0 and not tree.root.is_leaf:
            yield from run.pages.access(p, 0, tree.root)
        while True:
            subtree = yield queue.get()
            if subtree is None:
                break
            started = run.env.now
            yield from search(p, subtree)
            run.times.busy[p] += run.env.now - started
            run.times.finish[p] = run.env.now

    run.run_processors(processor)


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
    require_window(window)
    run = _machine(tree, config, page_store)
    tasks: list[Node] = []
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
    found: list[list[Entry]] = [[] for _ in range(config.processors)]
    cpu_test = KSR1_CONFIG.cpu_rect_test_time

    def search(p: int, subtree: Node) -> Generator:
        stack = [subtree]
        while stack:
            node = stack.pop()
            yield from run.pages.access(p, 0, node)
            yield run.env.timeout(len(node) * cpu_test)
            if node.is_leaf:
                found[p].extend(node.data_entries(window))
            else:
                for entry in reversed(node.entries):
                    if entry.intersects(window):
                        stack.append(entry.child)

    _run_tasks(run, tree, tasks, search)
    return ParallelQueryResult(found, run.metrics, run.times)


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
    require_k(k)
    reason = coordinate_error((("x", x), ("y", y)))
    if reason is not None:
        raise ValueError(reason)
    run = _machine(tree, config, page_store)
    tasks: list[Node] = []
    if tree.size > 0:
        root = tree.root
        if root.is_leaf:
            tasks = [root]
        else:
            children = sorted(
                root.entries, key=lambda e: _min_distance(e, x, y)
            )
            tasks = [entry.child for entry in children]

    # Shared pruning state: the k best (distance, oid, sequence, entry)
    # found anywhere, in ascending order, plus the latch guarding updates.
    # Ties at equal distance go to the smaller oid, as sequentially.
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
            item = (distance, entry.oid, next(counter), entry)
            if len(best) < k or item < best[-1]:
                bisect.insort(best, item)
                del best[k:]
        finally:
            latch.release()

    def search(p: int, subtree: Node) -> Generator:
        heap: list[tuple[float, int, Node]] = [(0.0, 0, subtree)]
        tiebreak = 1
        while heap:
            node_distance, _, node = heapq.heappop(heap)
            if node_distance > bound():
                continue  # pruned by the shared bound (free SVM read)
            yield from run.pages.access(p, 0, node)
            yield run.env.timeout(len(node) * cpu_test)
            if node.is_leaf:
                for entry in node.data_entries():
                    distance = _min_distance(entry, x, y)
                    if distance <= bound():
                        yield from offer(entry, distance)
            else:
                for entry in node.entries:
                    distance = _min_distance(entry, x, y)
                    if distance <= bound():
                        heapq.heappush(heap, (distance, tiebreak, entry.child))
                        tiebreak += 1

    _run_tasks(run, tree, tasks, search)
    return ParallelQueryResult([[item[-1] for item in best]], run.metrics, run.times)
