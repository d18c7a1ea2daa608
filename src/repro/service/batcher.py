"""Micro-batching of compatible window queries.

Window queries arriving within a short coalescing window (2 ms) are
grouped — per target tree — and answered by **one** shared traversal
(:func:`repro.query.batch.multi_window_query`) instead of one traversal
each: the dynamic-batching shape of serving stacks, applied to R-tree
search.  Batching trades a bounded amount of added latency (at most the
coalescing window) for directory-page sharing and a per-batch rather than
per-query worker dispatch.

The batcher is deliberately dumb about execution: the engine passes in an
async *runner* that owns admission semaphores, the worker pool and event
emission.  The batcher only collects, groups and hands
over.  It holds the runner from ``start()`` to ``close()`` only, so a
stopped engine and its batcher refer to each other in neither direction.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Optional

from .model import WindowRequest

__all__ = ["MicroBatcher", "PendingWindow"]

#: Coalescing window opened by a batch's first arrival, and the batch cap.
WINDOW_S = 0.002
MAX_BATCH = 16


class PendingWindow:
    """One window query waiting for its batch."""

    __slots__ = ("request", "future", "enqueued_at", "deadline")

    def __init__(
        self,
        request: WindowRequest,
        future: asyncio.Future,
        enqueued_at: float,
        deadline: Optional[float] = None,
    ):
        self.request = request
        self.future = future
        self.enqueued_at = enqueued_at
        #: Engine-clock instant the submitting request's budget runs out
        #: (None = unbounded); the batch runs under its most patient
        #: member's deadline.
        self.deadline = deadline


#: runner(tree_name, items) executes one batch and resolves the futures.
Runner = Callable[[str, list], Awaitable[None]]


class MicroBatcher:
    """Collects window queries into batches of at most :data:`MAX_BATCH`.

    The first arrival opens a batch; it closes after :data:`WINDOW_S`
    seconds or when full, whichever comes first.
    """

    def __init__(self):
        self._runner: Optional[Runner] = None
        self._queue: Optional[asyncio.Queue] = None
        self._task: Optional[asyncio.Task] = None
        self._group_tasks: set[asyncio.Task] = set()
        self.batches_dispatched = 0

    # -- life cycle -----------------------------------------------------------
    def start(self, runner: Runner) -> None:
        self._runner = runner
        self._queue = asyncio.Queue()
        self._task = asyncio.create_task(self._loop(), name="repro-service-batcher")

    async def close(self) -> None:
        """Flush everything already enqueued, then stop the loop."""
        if self._task is None:
            return
        await self._queue.put(None)
        await self._task
        self._task = None
        if self._group_tasks:
            await asyncio.gather(*self._group_tasks, return_exceptions=True)
        self._runner = None

    # -- intake ---------------------------------------------------------------
    async def put(self, item: PendingWindow) -> None:
        if self._queue is None:
            raise RuntimeError("batcher is not started")
        await self._queue.put(item)

    # -- the collect loop -----------------------------------------------------
    async def _loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            if item is None:
                return
            batch = [item]
            deadline = loop.time() + WINDOW_S
            while len(batch) < MAX_BATCH:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    extra = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                if extra is None:
                    self._dispatch(batch)
                    return
                batch.append(extra)
            self._dispatch(batch)

    def _dispatch(self, batch: list) -> None:
        groups: dict[str, list] = {}
        for item in batch:
            groups.setdefault(item.request.tree, []).append(item)
        for tree_name, items in groups.items():
            self.batches_dispatched += 1
            task = asyncio.create_task(self._runner(tree_name, items))
            self._group_tasks.add(task)
            task.add_done_callback(self._group_tasks.discard)

    def __repr__(self) -> str:
        return (
            f"<MicroBatcher window={WINDOW_S * 1e3:.1f}ms "
            f"max={MAX_BATCH} dispatched={self.batches_dispatched}>"
        )
