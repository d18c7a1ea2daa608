"""Load balancing through task reassignment (section 3.4).

Each simulated processor keeps its unprocessed subtree pairs in a
:class:`Workload`: one FIFO deque per tree level.  Execution pops from the
*deepest* pending level (depth-first, preserving the sequential
algorithm's traversal and the plane-sweep order within a level); an idle
processor steals from the *highest* pending level of a victim — the pairs
closest to the root, i.e. the largest chunks of remaining work — and takes
them from the back of the deque, so the victim keeps the spatially
adjacent work it would process next.

Two knobs from the paper's experiments:

* ``level`` — no reassignment at all, reassignment only of pairs at the
  original task level ("root level"), or at *all* directory levels
  (section 4.4's variants 1-3);
* ``victim`` — help the processor with the highest expected workload
  (largest ``(hl, ns)``: highest level with pending pairs, then their
  count) or an arbitrary one (the [SN 93] proposal, section 4.4's test
  series a/b).

After a successful steal the two processors become *buddies*: next time
either runs dry it first asks the other (the paper's repeated cooperation
until both are idle).
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from ..rtree.node import Node
from ..trace import NULL_TRACER, EventKind, Tracer

__all__ = ["ReassignLevel", "VictimChoice", "ReassignmentPolicy", "Workload"]


class ReassignLevel(enum.Enum):
    NONE = "none"
    ROOT = "root"
    ALL = "all"


class VictimChoice(enum.Enum):
    MAX_LOAD = "max load"
    ARBITRARY = "arbitrary"


@dataclass(frozen=True)
class ReassignmentPolicy:
    """Which pairs may move, and to whose aid an idle processor goes.

    ``min_pairs`` is the paper's "minimum size of the work load which is
    worth to be divided into two" (section 3.4): a victim with fewer
    pending pairs at its highest level is not worth the reassignment
    overhead and is left alone.
    """

    level: ReassignLevel = ReassignLevel.ALL
    victim: VictimChoice = VictimChoice.MAX_LOAD
    seed: int = 0
    min_pairs: int = 1

    def __post_init__(self):
        if self.min_pairs < 1:
            raise ValueError("min_pairs must be at least 1")

    @property
    def enabled(self) -> bool:
        return self.level is not ReassignLevel.NONE

    def make_rng(self) -> random.Random:
        return random.Random(self.seed)


_STALE = object()


class Workload:
    """Per-processor pending subtree pairs, organised by tree level.

    ``owner``/``tracer`` make the workload self-reporting: every enqueue,
    dequeue and steal removal becomes a trace event attributed to the
    owning processor (no-ops with the default null tracer).
    """

    def __init__(
        self, task_level: int, owner: int = -1, tracer: Tracer = NULL_TRACER
    ):
        self.task_level = task_level
        self.owner = owner
        self.tracer = tracer
        self._pending: dict[int, Deque[tuple[Node, Node]]] = {}
        self._count = 0
        #: highest_pending()'s answer, kept until a writer of _pending
        #: (push_pair, pop_deepest, steal_from) makes it stale.
        self._report: object = _STALE

    def __len__(self) -> int:
        return self._count

    @property
    def empty(self) -> bool:
        return self._count == 0

    def push_task(self, node_r: Node, node_s: Node) -> None:
        """Enqueue a task-level pair (initial assignment / stolen work)."""
        self.push_pair(node_r.level, node_r, node_s)

    def push_pair(self, level: int, node_r: Node, node_s: Node) -> None:
        queue = self._pending.get(level)
        if queue is None:
            queue = deque()
            self._pending[level] = queue
        queue.append((node_r, node_s))
        self._count += 1
        self._report = _STALE
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.PAIR_ENQUEUED,
                proc=self.owner,
                level=level,
                r=node_r.page_id,
                s=node_s.page_id,
            )

    def pop_deepest(self) -> Optional[tuple[int, Node, Node]]:
        """Next pair in depth-first plane-sweep order, or None when empty."""
        if self._count == 0:
            return None
        level = min(l for l, q in self._pending.items() if q)
        node_r, node_s = self._pending[level].popleft()
        self._count -= 1
        self._report = _STALE
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.PAIR_DEQUEUED,
                proc=self.owner,
                level=level,
                r=node_r.page_id,
                s=node_s.page_id,
            )
        return (level, node_r, node_s)

    # -- what other processors see -------------------------------------------
    def highest_pending(self) -> Optional[tuple[int, int]]:
        """``(hl, ns)``: the highest level with pending pairs and their
        count there — what each processor "reports" (section 3.4)."""
        if self._report is _STALE:
            best: Optional[tuple[int, int]] = None
            for level, queue in self._pending.items():
                if queue and (best is None or level > best[0]):
                    best = (level, len(queue))
            self._report = best
        return self._report

    def stealable_level(
        self, policy_level: ReassignLevel, min_pairs: int = 1
    ) -> Optional[int]:
        """The level a thief may take pairs from under *policy_level*,
        or None when nothing qualifies (including workloads below the
        minimum split size)."""
        if policy_level is ReassignLevel.NONE:
            return None
        report = self.highest_pending()
        if report is None:
            return None
        level, count = report
        if policy_level is ReassignLevel.ROOT and level != self.task_level:
            return None
        if count < min_pairs:
            return None
        return level

    def steal_from(self, level: int, thief: int = -1) -> list[tuple[Node, Node]]:
        """Remove about half the pending pairs of *level* from the back
        (the victim keeps its near-future, spatially adjacent work).

        ``thief`` is the processor the pairs are destined for — purely
        observability, recorded on the emitted steal events.
        """
        queue = self._pending.get(level)
        if not queue:
            return []
        count = max(1, len(queue) // 2)
        stolen = [queue.pop() for _ in range(count)]
        stolen.reverse()  # keep plane-sweep order for the thief
        self._count -= count
        self._report = _STALE
        if self.tracer.enabled:
            for node_r, node_s in stolen:
                self.tracer.emit(
                    EventKind.STEAL_TAKE,
                    proc=self.owner,
                    level=level,
                    r=node_r.page_id,
                    s=node_s.page_id,
                    thief=thief,
                )
        return stolen

    def __repr__(self) -> str:
        levels = {l: len(q) for l, q in self._pending.items() if q}
        return f"<Workload {self._count} pairs {levels}>"
