"""The serving engine: concurrent spatial queries over pre-built packed trees.

``Engine`` is the single-pool tier of :mod:`repro.service`.  Its front
door — validation, admission control, the result cache, the per-request
deadline, the ``SVC_*`` event ledger and the draining ``stop()`` — is
:class:`~repro.service.frontdoor.FrontDoor`, the same code the sharded
tier (:class:`~repro.shard.router.ShardRouter`) runs.  This module holds
only the engine's execution plan behind that base's hooks: ``_execute``
routes a cache miss to the backend — window queries through the
**micro-batcher** (one shared traversal per batch), kNN and join requests
straight to the **worker pool** (forked processes inheriting the trees,
the `join/mp.py` SVM trick, or threads where fork is unavailable) — and
``_start_backend`` / ``_stop_backend`` bring pool and batcher up and
(batches flushed first) down.

Around the execution backend sits the **resilience layer**:

* every worker-pool call is supervised (typed :class:`WorkerError`
  outcomes, per-attempt deadlines) and a failed call is **retried at
  once** on the same pool, by the front door's attempt rule — always
  inside the request's original admission-timeout budget; when the
  budget or the attempts run out, the typed failure becomes the
  request's ``error`` response.  The pool is told of a worker's death
  the moment it happens and fails exactly the call that worker held
  (``worker-died``), forks a replacement, and kills a worker whose call
  outlives its attempt deadline, so nothing is polled and the retry
  waits only in the pool's queue;
* a seeded :class:`~repro.faults.plan.FaultPlan` can inject worker
  crashes, hangs and slow I/O at the pool seam for chaos testing — the
  ``FLT_*``/``SUP_*`` ledgers reconcile as the ``worker-call`` and
  ``worker-process`` protocol specs (:mod:`repro.analysis.protocol`).
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..faults import FaultPlan
from ..trace import EventKind
from .batcher import MicroBatcher, PendingWindow
from .frontdoor import FrontDoor, pool_totals
from .model import (
    KNNRequest,
    Request,
    RequestClass,
    WindowRequest,
    canonical_rect,
)
from .workers import WorkerError, WorkerPool

__all__ = ["Engine", "EngineConfig"]

#: Concurrent join executions; each is one whole join on one worker.
JOIN_LIMIT = 2


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the serving engine (what no caller varies is a module
    constant: here, in :mod:`~repro.service.frontdoor` and in
    :mod:`~repro.service.batcher`).

    ``workers``          — forked worker processes (0 = thread fallback);
    ``max_inflight``     — global bound on admitted-but-unfinished requests;
    ``batching``         — micro-batcher switch;
    ``cache_capacity``   — result cache size (0 disables);
    ``attempt_timeout_s``— per-attempt execution deadline of a worker call,
                           from hand-off to a worker (always clipped to
                           the request's remaining budget);
    ``faults``           — seeded fault plan injected at the pool seam
                           (None = healthy);
    ``seed``             — read by nothing: retries no longer sleep a
                           jittered backoff.  Kept only because the
                           benchmark harness still passes it.
    """

    workers: int = 0
    max_inflight: int = 128
    batching: bool = True
    cache_capacity: int = 1024
    attempt_timeout_s: Optional[float] = 2.0
    faults: Optional[FaultPlan] = None
    seed: Optional[int] = None


class Engine(FrontDoor):
    """Concurrent spatial-query engine over a registry of named packed
    trees (:class:`~repro.rtree.flat.FlatRTree`; any other tree is a
    ``ValueError`` naming it)."""

    def __init__(
        self,
        trees: Mapping[str, object],
        config: Optional[EngineConfig] = None,
        *,
        sinks: Sequence = (),
    ):
        if not trees:
            raise ValueError("the engine needs at least one tree")
        config = config or EngineConfig()
        super().__init__(config, sinks=sinks)
        self.join_limit = JOIN_LIMIT
        self.trees = dict(trees)
        self.pool = WorkerPool(
            self.trees,
            self.config.workers,
            injector=self.injector,
            tracer=self.tracer,
        )
        self.batcher = MicroBatcher()

    # -- the execution plan ---------------------------------------------------
    def _tree_names(self):
        return self.trees

    def _start_backend(self) -> dict:
        self.pool.start()
        if self.config.batching:
            self.batcher.start(self._run_window_group)
        return {
            "forked": int(self.pool.forked),
            "batching": int(self.config.batching),
        }

    async def _stop_backend(self) -> None:
        if self.config.batching:
            await self.batcher.close()
        await self.pool.close()

    async def _execute(self, request: Request, deadline: Optional[float]):
        cls = request.cls
        if isinstance(request, WindowRequest):
            if self.config.batching:
                future = asyncio.get_running_loop().create_future()
                await self.batcher.put(
                    PendingWindow(request, future, self._now(), deadline=deadline)
                )
                return await future
            values = await self._guarded(
                cls, "windows", request.tree,
                [canonical_rect(request.window)], deadline=deadline,
            )
            return values[0], 1
        if isinstance(request, KNNRequest):
            value = await self._guarded(
                cls, "knn", request.tree, float(request.x),
                float(request.y), int(request.k), deadline=deadline,
            )
            return value, 0
        window = (
            canonical_rect(request.window)
            if request.window is not None
            else None
        )
        value = await self._guarded(
            cls, "join", request.tree_r, request.tree_s, window,
            deadline=deadline,
        )
        return value, 0

    def _guarded(
        self, cls: RequestClass, kind: str, *args,
        deadline: Optional[float] = None,
    ):
        """One worker-pool execution under the class concurrency limit,
        its attempts run by the front door's rule."""
        return self._in_slot(cls, self._attempts, cls, kind, args, deadline)

    async def _attempts(
        self, cls: RequestClass, kind: str, args: tuple,
        deadline: Optional[float],
    ):
        for attempt in itertools.count():
            timeout_s = self._attempt_clock(deadline, attempt, kind)
            try:
                return await self.pool.run(kind, *args, timeout_s=timeout_s)
            except WorkerError as exc:
                if not self._retry(cls, attempt + 1, exc, deadline):
                    raise

    async def _run_window_group(self, tree_name: str, items: list) -> None:
        """Execute one micro-batch and settle every member's future."""
        rects = [canonical_rect(item.request.window) for item in items]
        # The batch runs under the most patient member's deadline; each
        # member's own submit-level timeout still enforces its budget.
        deadlines = [item.deadline for item in items]
        deadline = None if None in deadlines else max(deadlines)
        try:
            values = await self._guarded(
                RequestClass.WINDOW, "windows", tree_name, rects,
                deadline=deadline,
            )
        except Exception as exc:
            for item in items:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        size = len(items)
        self._emit(
            EventKind.SVC_BATCH_EXECUTED,
            RequestClass.WINDOW,
            tree=tree_name,
            size=size,
        )
        for item, value in zip(items, values):
            if not item.future.done():
                item.future.set_result((value, size))

    def snapshot(self) -> dict:
        """Metrics + cache + resilience counters, JSON-able."""
        return {
            **super().snapshot(),
            # The engine has no breaker; read by perf's service.breaker.opens.
            "breakers": {},
            **pool_totals([self.pool]),
            # Per-shard metrics live under this key on the sharded tier;
            # the single-pool engine serves one implicit shard, reported
            # as None so dashboards can key on the same field either way.
            "shards": None,
        }
