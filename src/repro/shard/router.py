"""The shard router: a shared-nothing serving tier over K worker pools.

``ShardRouter`` is the sharded sibling of
:class:`~repro.service.engine.Engine` and speaks the same protocol —
typed requests in, :class:`~repro.service.model.Response` out, ``SVC_*``
life-cycle events on a wall-clocked tracer, an Engine-shaped
``snapshot()`` — so load generators, metrics sinks and the
:class:`~repro.trace.checkers.ServiceAccountingChecker` work on either
unchanged.  What changes is the execution plan:

* the dataset is **spatially partitioned** (:mod:`repro.shard.partition`)
  into K shards, each owning its own R-tree(s) served by its own
  :class:`~repro.service.workers.WorkerPool` — shared-nothing, the
  architecture the paper's closing section names as the step beyond its
  shared-virtual-memory model;
* a request **fans out only to the shards its geometry overlaps** —
  set-union merge for windows, a best-first pruning merge for kNN (a
  shard is queried only while its content box's mindist can still beat
  the current k-th best), and reference-point duplicate elimination for
  joins — every decision emitted as an ``SHD_*`` event the
  :class:`~repro.trace.checkers.ShardAccountingChecker` re-derives from
  the announced shard geometry;
* each shard runs **R replica pools** with round-robin read routing, and
  every routed sub-request executes under a
  :class:`~repro.recovery.lease.LeaseTable` lease: a crashed or hung
  replica fails the attempt, the lease expires and is requeued
  (``LSE_REQUEUED``), and the sub-request **fails over** to the next
  replica (``SHD_FAILOVER``) instead of failing the request — with one
  replica, the retry lands on the pool the per-pool
  :class:`~repro.service.supervisor.Supervisor` re-forks.  The
  :class:`~repro.recovery.ledger.ResultLedger` keeps the merge
  exactly-once if a lost attempt ever resurfaces.

The router deliberately has no micro-batcher and no circuit breakers:
batching belongs to the single-tree engine it can wrap per shard later,
and replica failover subsumes the breaker's fail-fast role here.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from ..faults import FaultInjector, FaultPlan
from ..geometry.rect import Rect
from ..recovery.lease import LeaseTable
from ..recovery.ledger import ResultLedger
from ..service.cache import MISS, ResultCache
from ..service.metrics import ServiceMetrics
from ..service.model import (
    JoinRequest,
    KNNRequest,
    Request,
    RequestClass,
    Response,
    Status,
    WindowRequest,
    canonical_rect,
)
from ..service.resilience import WorkerError
from ..service.supervisor import Supervisor
from ..service.workers import WorkerPool
from ..trace import EventKind, Tracer
from .ops import merge_knn, mindist
from .partition import ShardedDataset, build_sharded

__all__ = ["ShardRouter", "ShardConfig"]

_UNSET = object()

#: Each replica pool owns a disjoint call-id range this wide, so the
#: ``FLT_INJECT_* .call`` / ``SUP_CALL_*`` ledgers of many pools sharing
#: one tracer reconcile per call, never across pools.
_CALL_ID_STRIDE = 1_000_000


@dataclass(frozen=True)
class ShardConfig:
    """Knobs of the sharded tier.

    ``shards`` / ``mode`` / ``cells_per_side`` — the partitioner
    (:class:`~repro.shard.partition.Partitioner`);
    ``replicas``         — replica pools per shard (round-robin reads,
                           failover target on a crashed attempt);
    ``backend``          — per-shard tree backend (``node`` | ``flat``);
    ``workers``          — forked processes per replica pool (0 = threads);
    ``max_attempts``     — attempts per sub-request across replicas
                           before the request errors;
    ``lease_s``          — sub-request lease duration (failover expires
                           leases explicitly, so this only bounds
                           bookkeeping, not detection latency);
    the remaining knobs mirror
    :class:`~repro.service.engine.EngineConfig` and behave identically.
    """

    shards: int = 4
    mode: str = "grid"
    replicas: int = 1
    backend: str = "node"
    workers: int = 0
    cells_per_side: Optional[int] = None
    max_inflight: int = 128
    queue_limit: int = 1024
    window_limit: int = 32
    knn_limit: int = 16
    join_limit: int = 4
    default_timeout_s: Optional[float] = 10.0
    attempt_timeout_s: Optional[float] = 2.0
    max_attempts: int = 3
    cache_capacity: int = 1024
    cache_ttl_s: Optional[float] = 60.0
    lease_s: float = 5.0
    supervise: bool = True
    supervisor_interval_s: float = 0.2
    faults: Optional[FaultPlan] = None


class ShardRouter:
    """Routes spatial queries across per-shard replica worker pools."""

    def __init__(
        self,
        datasets: Mapping[str, object],
        config: Optional[ShardConfig] = None,
        *,
        sinks: Sequence = (),
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or ShardConfig()
        if self.config.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.config.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.metrics = ServiceMetrics()
        # The serving tier owns real time; tests inject a fake clock and
        # everything downstream (tracer, deadlines, leases) follows it.
        self._clock = clock
        self._t0 = clock()
        self.tracer = Tracer(
            clock=self._now,
            sinks=[self.metrics, *sinks],
        )
        self.sharded: ShardedDataset = build_sharded(
            datasets,
            self.config.shards,
            mode=self.config.mode,
            backend=self.config.backend,
            cells_per_side=self.config.cells_per_side,
        )
        self.cache = ResultCache(
            self.config.cache_capacity,
            self.config.cache_ttl_s,
            keep_stale=False,
            clock=self._now,
            tracer=self.tracer,
        )
        self.injector = (
            FaultInjector(self.config.faults, tracer=self.tracer)
            if self.config.faults is not None and self.config.faults.active
            else None
        )
        self.pools: list[list[WorkerPool]] = []
        self.supervisors: list[Supervisor] = []
        for shard in range(self.config.shards):
            replicas = []
            for replica in range(self.config.replicas):
                index = shard * self.config.replicas + replica
                pool = WorkerPool(
                    self.sharded.trees[shard],
                    self.config.workers,
                    injector=self.injector,
                    tracer=self.tracer,
                    label=f"shard{shard}/r{replica}",
                    call_id_base=index * _CALL_ID_STRIDE,
                )
                replicas.append(pool)
                if self.config.supervise:
                    self.supervisors.append(
                        Supervisor(
                            pool,
                            interval_s=self.config.supervisor_interval_s,
                            tracer=self.tracer,
                        )
                    )
            self.pools.append(replicas)
        self.leases = LeaseTable(
            clock=self._now, lease_s=self.config.lease_s, tracer=self.tracer
        )
        self.ledger = ResultLedger(self.tracer)
        self._rr = [0] * self.config.shards
        self._shard_stats = [
            {
                "routed": 0,
                "subrequests": 0,
                "rows": 0,
                "failovers": 0,
                "knn_skips": 0,
                "inflight": 0,
                "max_inflight": 0,
            }
            for _ in range(self.config.shards)
        ]
        self._req_seq = itertools.count()
        self._running = False
        self._draining = False
        self._inflight = 0
        self._waiting = {cls: 0 for cls in RequestClass}
        self._sems: dict[RequestClass, asyncio.Semaphore] = {}
        self._idle: Optional[asyncio.Event] = None

    @classmethod
    def from_maps(
        cls,
        maps: Mapping[str, object],
        config: Optional[ShardConfig] = None,
        *,
        sinks: Sequence = (),
    ) -> "ShardRouter":
        """Build from named :class:`~repro.datagen.maps.MapData` objects."""
        return cls(
            {name: data.table() for name, data in maps.items()},
            config,
            sinks=sinks,
        )

    # -- life cycle -----------------------------------------------------------
    async def start(self) -> None:
        if self._running:
            raise RuntimeError("router already started")
        self._sems = {
            RequestClass.WINDOW: asyncio.Semaphore(self.config.window_limit),
            RequestClass.KNN: asyncio.Semaphore(self.config.knn_limit),
            RequestClass.JOIN: asyncio.Semaphore(self.config.join_limit),
        }
        self._idle = asyncio.Event()
        self._idle.set()
        for replicas in self.pools:
            for pool in replicas:
                pool.start()
        for supervisor in self.supervisors:
            supervisor.start()
        self._running = True
        self._draining = False
        self.tracer.emit(
            EventKind.SVC_ENGINE_START,
            trees=",".join(self.sharded.tree_names()),
            workers=self.config.workers,
            shards=self.config.shards,
            replicas=self.config.replicas,
            mode=self.config.mode,
            backend=self.config.backend,
            faulted=int(self.injector is not None),
        )
        self._announce_topology()

    def _announce_topology(self) -> None:
        """One ``SHD_SHARD_UP`` per (shard, tree): the content geometry
        every later routing decision is checked against."""
        if not self.tracer.enabled:
            return
        for shard in range(self.config.shards):
            for name in self.sharded.tree_names():
                mbr = self.sharded.content_mbrs[shard].get(name)
                payload = {
                    "shard": shard,
                    "tree": name,
                    "objects": self.sharded.counts[shard].get(name, 0),
                }
                if mbr is None:
                    payload["empty"] = 1
                else:
                    payload.update(
                        xl=mbr.xl, yl=mbr.yl, xu=mbr.xu, yu=mbr.yu
                    )
                self.tracer.emit(EventKind.SHD_SHARD_UP, **payload)

    async def stop(self) -> None:
        """Stop admitting, drain in-flight requests, release every pool."""
        if not self._running:
            return
        self._draining = True
        await self._idle.wait()
        for supervisor in self.supervisors:
            await supervisor.stop()
        for replicas in self.pools:
            for pool in replicas:
                await pool.close()
        self._running = False
        self.tracer.emit(
            EventKind.SVC_ENGINE_STOP,
            completed=self.metrics.completed,
            rejected=self.metrics.rejected,
            timeouts=self.metrics.timeouts,
        )
        self.tracer.close()

    async def __aenter__(self) -> "ShardRouter":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- front door (the Engine protocol) -------------------------------------
    async def submit(self, request: Request, timeout=_UNSET) -> Response:
        cls = request.cls
        t0 = self._now()
        self._emit(EventKind.SVC_REQUEST_SUBMITTED, cls)
        if not self._running or self._draining:
            return self._reject(
                cls, t0, "shutdown", "router is not accepting requests"
            )
        if self._inflight >= self.config.max_inflight:
            return self._reject(
                cls, t0, "capacity",
                f"in-flight limit {self.config.max_inflight} reached",
            )
        if self._waiting[cls] >= self.config.queue_limit:
            return self._reject(
                cls, t0, "queue",
                f"waiting-room limit {self.config.queue_limit} reached for "
                f"class {cls.value}",
            )
        use_cache = self.config.cache_capacity > 0 and request.cacheable
        self._inflight += 1
        self._idle.clear()
        self._emit(
            EventKind.SVC_REQUEST_ADMITTED,
            cls,
            cache=int(use_cache),
            inflight=self._inflight,
        )
        if timeout is _UNSET:
            timeout = self.config.default_timeout_s
        deadline = None if timeout is None else t0 + timeout
        try:
            try:
                work = self._process(request, use_cache, t0, deadline)
                if timeout is not None:
                    response = await asyncio.wait_for(work, timeout)
                else:
                    response = await work
            except asyncio.TimeoutError:
                self._emit(
                    EventKind.SVC_REQUEST_TIMEOUT, cls, cache=int(use_cache)
                )
                return Response(
                    Status.TIMEOUT,
                    cls,
                    latency_s=self._now() - t0,
                    detail=f"timed out after {timeout}s",
                )
            except asyncio.CancelledError:
                self._emit(
                    EventKind.SVC_REQUEST_CANCELLED, cls, cache=int(use_cache)
                )
                raise
            except Exception as exc:
                self._emit(
                    EventKind.SVC_REQUEST_ERROR, cls, error=type(exc).__name__
                )
                return Response(
                    Status.ERROR,
                    cls,
                    latency_s=self._now() - t0,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            self._emit(
                EventKind.SVC_REQUEST_COMPLETED,
                cls,
                latency_s=response.latency_s,
                cached=int(response.cached),
                stale=0,
                batch=0,
            )
            return response
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    # -- routing --------------------------------------------------------------
    async def _process(
        self,
        request: Request,
        use_cache: bool,
        t0: float,
        deadline: Optional[float],
    ) -> Response:
        cls = request.cls
        key = request.cache_key() if use_cache else None
        if use_cache:
            value = self.cache.get(key)
            if value is not MISS:
                return Response(
                    Status.OK, cls, value=value,
                    latency_s=self._now() - t0, cached=True,
                )
        rid = next(self._req_seq)
        if isinstance(request, WindowRequest):
            value = await self._route_window(rid, request, deadline)
        elif isinstance(request, KNNRequest):
            value = await self._route_knn(rid, request, deadline)
        elif isinstance(request, JoinRequest):
            value = await self._route_join(rid, request, deadline)
        else:
            raise TypeError(f"unknown request type {type(request).__name__}")
        if use_cache:
            self.cache.put(key, value)
        return Response(
            Status.OK, cls, value=value, latency_s=self._now() - t0
        )

    def _require_tree(self, name: str) -> None:
        if name not in self.sharded.trees[0]:
            raise KeyError(
                f"unknown tree {name!r}; have {self.sharded.tree_names()}"
            )

    async def _route_window(
        self, rid: int, request: WindowRequest, deadline
    ) -> tuple:
        self._require_tree(request.tree)
        canon = canonical_rect(request.window)
        rect = Rect(*canon)
        route = self.sharded.routed_shards(request.tree, rect)
        self._emit_routed(
            rid, "window", route,
            tree=request.tree,
            xl=canon[0], yl=canon[1], xu=canon[2], yu=canon[3],
        )
        parts = await self._fanout(
            rid,
            RequestClass.WINDOW,
            [
                (shard, "windows", (request.tree, [canon]))
                for shard in route
            ],
            deadline,
        )
        merged: set = set()
        total = 0
        for values in parts:
            total += len(values[0])
            merged.update(values[0])
        value = tuple(sorted(merged))
        self._emit_raw(
            EventKind.SHD_MERGED, req=rid, cls="window",
            rows=len(value), parts=total, duplicates=total - len(value),
        )
        return value

    async def _route_knn(
        self, rid: int, request: KNNRequest, deadline
    ) -> tuple:
        self._require_tree(request.tree)
        if request.k < 1:
            raise ValueError("k must be at least 1")
        x, y, k = float(request.x), float(request.y), int(request.k)
        order = []
        for shard in range(self.config.shards):
            mbr = self.sharded.content_mbrs[shard].get(request.tree)
            if mbr is not None:
                order.append((mindist(mbr, x, y), shard))
        order.sort()
        self._emit_routed(
            rid, "knn", [shard for _, shard in order],
            tree=request.tree, x=x, y=y, k=k,
        )
        best: list = []
        total = 0
        for bound, shard in order:
            if len(best) >= k and bound > best[-1][0]:
                # Strictly above the k-th distance: an equal-distance
                # shard may still hold a tie that wins by oid order.
                self._shard_stats[shard]["knn_skips"] += 1
                self._emit_raw(
                    EventKind.SHD_SHARD_SKIPPED, req=rid, shard=shard,
                    mindist=bound, kth=best[-1][0],
                )
                continue
            found = await self._sub(
                rid, shard, RequestClass.KNN,
                "knn", (request.tree, x, y, k), deadline,
            )
            total += len(found)
            merge_knn(best, found, k)
        value = tuple((d, oid) for d, _, oid in best)
        self._emit_raw(
            EventKind.SHD_MERGED, req=rid, cls="knn",
            rows=len(value), parts=total, duplicates=total - len(value),
        )
        return value

    async def _route_join(
        self, rid: int, request: JoinRequest, deadline
    ) -> tuple:
        self._require_tree(request.tree_r)
        self._require_tree(request.tree_s)
        window = (
            canonical_rect(request.window)
            if request.window is not None
            else None
        )
        rect = Rect(*window) if window is not None else None
        route = self.sharded.join_shards(request.tree_r, request.tree_s, rect)
        payload = {"tree_r": request.tree_r, "tree_s": request.tree_s}
        if window is not None:
            payload.update(
                wxl=window[0], wyl=window[1], wxu=window[2], wyu=window[3]
            )
        self._emit_routed(rid, "join", route, **payload)
        parts = await self._fanout(
            rid,
            RequestClass.JOIN,
            [
                (
                    shard,
                    "shard_join",
                    (
                        request.tree_r,
                        request.tree_s,
                        window,
                        self.sharded.pmap,
                        shard,
                    ),
                )
                for shard in route
            ],
            deadline,
        )
        merged: list = []
        for pairs in parts:
            merged.extend(pairs)
        value = tuple(sorted(merged))
        duplicates = len(merged) - len(set(merged))
        self._emit_raw(
            EventKind.SHD_MERGED, req=rid, cls="join",
            rows=len(value), parts=len(merged), duplicates=duplicates,
        )
        if duplicates:
            raise RuntimeError(
                f"join merge found {duplicates} duplicate pair(s) — "
                f"reference-point elimination failed"
            )
        return value

    # -- sub-request execution -------------------------------------------------
    async def _fanout(
        self, rid: int, cls: RequestClass, calls: list, deadline
    ) -> list:
        """Run one sub-request per shard concurrently; on any terminal
        failure, cancel the rest so no orphan task outlives the request."""
        if not calls:
            return []
        if len(calls) == 1:
            shard, kind, args = calls[0]
            return [await self._sub(rid, shard, cls, kind, args, deadline)]
        tasks = [
            asyncio.ensure_future(
                self._sub(rid, shard, cls, kind, args, deadline)
            )
            for shard, kind, args in calls
        ]
        try:
            return await asyncio.gather(*tasks)
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise

    async def _sub(
        self,
        rid: int,
        shard: int,
        cls: RequestClass,
        kind: str,
        args: tuple,
        deadline: Optional[float],
    ):
        """One routed sub-request: leased execution with replica failover.

        Every ``SENT`` settles exactly once — DONE on success, FAILOVER
        between attempts, FAILED on the last attempt (or on abandonment
        by a cancelled request).  Three consequences the settlement spec
        (``repro.analysis.protocol``) holds us to:

        * a budget exhausted *before* the first attempt raises without
          any settlement event (there is no SENT to settle);
        * give-up vs failover is decided *before* a FAILOVER is emitted,
          so a FAILOVER always keeps its promise of a following SENT —
          a budget that dies between attempts settles the failed SENT
          as FAILED instead of announcing a retry that never comes;
        * a cancelled request emits FAILED only when the current
          attempt's SENT is still unsettled.

        Every attempt runs under its own lease; a failed attempt's lease
        expires and its task is requeued (the ``LSE_*`` ledger the
        RecoveryAccountingChecker reconciles) before the next replica
        picks it up.
        """
        self._waiting[cls] += 1
        try:
            await self._sems[cls].acquire()
        finally:
            self._waiting[cls] -= 1
        stats = self._shard_stats[shard]
        stats["subrequests"] += 1
        stats["inflight"] += 1
        stats["max_inflight"] = max(stats["max_inflight"], stats["inflight"])
        replicas = self.config.replicas
        start = self._rr[shard]
        self._rr[shard] = (start + 1) % replicas
        task = f"{rid}/{shard}"
        lease = None
        pending_sent = False  # the current attempt's SENT is unsettled
        try:
            for attempt in range(self.config.max_attempts):
                replica = (start + attempt) % replicas
                pool = self.pools[shard][replica]
                timeout_s = self.config.attempt_timeout_s
                if deadline is not None:
                    remaining = deadline - self._now()
                    if remaining <= 0 and attempt == 0:
                        # Nothing was ever sent: fail the sub-request
                        # with no settlement event — FAILED may only
                        # settle a SENT.
                        raise self._give_up(
                            rid, shard, cls, attempt, "deadline",
                            WorkerError(
                                "sub-request budget exhausted before "
                                f"attempt {attempt + 1}",
                                cause_type="deadline",
                                kind=kind,
                            ),
                            sent=False,
                        )
                    # attempt > 0: a FAILOVER promised this resend (the
                    # give-up decision already saw a live budget; the
                    # clock may have advanced since).  Send with the
                    # clamped remainder — an expired budget surfaces as
                    # an immediate attempt timeout, which settles the
                    # SENT lawfully through the WorkerError path.
                    timeout_s = (
                        max(0.0, remaining) if timeout_s is None
                        else min(timeout_s, max(0.0, remaining))
                    )
                holder = shard * replicas + replica
                lease = self.leases.grant(task, holder=holder)
                self._emit_raw(
                    EventKind.SHD_SUBREQUEST_SENT,
                    req=rid, shard=shard, replica=replica,
                    attempt=attempt, op=kind,
                )
                pending_sent = True
                try:
                    value = await pool.run(kind, *args, timeout_s=timeout_s)
                except WorkerError as exc:
                    self.leases.expire(lease.id, reason=exc.cause_type)
                    self._requeue(task, holder)
                    lease = None
                    # Decide give-up vs failover *now*, before promising
                    # a resend: out of attempts, or out of budget for
                    # another one.
                    out_of_budget = (
                        deadline is not None and deadline - self._now() <= 0
                    )
                    if attempt + 1 >= self.config.max_attempts or out_of_budget:
                        pending_sent = False
                        raise self._give_up(
                            rid, shard, cls, attempt + 1, exc.cause_type, exc
                        )
                    stats["failovers"] += 1
                    # The failover IS this tier's retry: answer the pool's
                    # SUP_CALL_FAILED so the resilience ledger balances.
                    payload = {"call": exc.call_id, "attempt": attempt + 1,
                               "delay_s": 0.0}
                    if deadline is not None:
                        payload["remaining_s"] = deadline - self._now()
                    self._emit(EventKind.SUP_CALL_RETRY, cls, **payload)
                    self._emit_raw(
                        EventKind.SHD_FAILOVER,
                        req=rid, shard=shard, replica=replica,
                        next_replica=(start + attempt + 1) % replicas,
                        attempt=attempt, error=exc.cause_type,
                    )
                    pending_sent = False
                    continue
                rows = self._row_count(kind, value)
                # First completion wins; a resurfacing lost attempt would
                # land here again and be dropped (LSE_DUP_DROPPED).
                if self.ledger.commit(task, (), lease=lease.id, proc=holder):
                    self.leases.complete(lease.id, rows=rows)
                    lease = None
                    stats["rows"] += rows
                    self._emit_raw(
                        EventKind.SHD_SUBREQUEST_DONE,
                        req=rid, shard=shard, replica=replica,
                        attempt=attempt, rows=rows,
                    )
                    pending_sent = False
                return value
            raise AssertionError("unreachable: attempts exhausted silently")
        except asyncio.CancelledError:
            # The awaiting request timed out or was cancelled: the
            # attempt's lease is released (expired + requeued, with no
            # taker — the request is gone) and, if the attempt's SENT is
            # still unsettled, the sub-request settles as FAILED so the
            # fan-out ledger balances.  With no SENT pending there is
            # nothing to settle and FAILED would unbalance it instead.
            if lease is not None and self.leases.is_active(lease.id):
                holder = lease.holder
                self.leases.expire(lease.id, reason="abandoned")
                self._requeue(task, holder, abandoned=1)
            if pending_sent:
                self._emit_raw(
                    EventKind.SHD_SUBREQUEST_FAILED,
                    req=rid, shard=shard, attempts=attempt + 1,
                    error="abandoned",
                )
            raise
        finally:
            stats["inflight"] -= 1
            self._sems[cls].release()

    def _give_up(
        self, rid: int, shard: int, cls: RequestClass, attempts: int,
        error: str, exc: WorkerError, sent: bool = True,
    ) -> WorkerError:
        if exc.call_id >= 0:
            # Answer the last attempt's SUP_CALL_FAILED (a synthetic
            # deadline error made no pool call, so there is none to
            # answer and call_id stays -1).
            self._emit(
                EventKind.SUP_CALL_GIVEUP, cls,
                call=exc.call_id, attempts=attempts, error=error,
            )
        if sent:
            # FAILED settles the attempt's SENT; with nothing sent (a
            # budget that expired before the first attempt) the failure
            # is the raised exception alone — an unmatched FAILED would
            # unbalance the settlement ledger.
            self._emit_raw(
                EventKind.SHD_SUBREQUEST_FAILED,
                req=rid, shard=shard, attempts=attempts, error=error,
            )
        return exc

    def _requeue(self, task: str, holder: int, **extra) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.LSE_REQUEUED, proc=holder, task=task, **extra
            )

    @staticmethod
    def _row_count(kind: str, value) -> int:
        if kind == "windows":
            return sum(len(part) for part in value)
        return len(value)

    # -- helpers --------------------------------------------------------------
    def _now(self) -> float:
        return self._clock() - self._t0

    def _emit(
        self, kind: EventKind, cls: Optional[RequestClass] = None, **data
    ) -> None:
        if self.tracer.enabled:
            if cls is not None:
                data["cls"] = cls.value
            self.tracer.emit(kind, **data)

    def _emit_raw(self, kind: EventKind, **data) -> None:
        """Emit with *data* verbatim (the ``SHD_*`` events carry their
        own string ``cls`` key)."""
        if self.tracer.enabled:
            self.tracer.emit(kind, **data)

    def _emit_routed(
        self, rid: int, cls: str, route: Sequence[int], **geometry
    ) -> None:
        for shard in route:
            self._shard_stats[shard]["routed"] += 1
        self._emit_raw(
            EventKind.SHD_REQUEST_ROUTED,
            req=rid, cls=cls, fanout=len(route),
            shards=",".join(str(s) for s in route),
            **geometry,
        )

    def _reject(
        self, cls: RequestClass, t0: float, reason: str, detail: str
    ) -> Response:
        self._emit(EventKind.SVC_REQUEST_REJECTED, cls, reason=reason)
        return Response(
            Status.REJECTED, cls, latency_s=self._now() - t0, detail=detail
        )

    @property
    def inflight(self) -> int:
        return self._inflight

    def snapshot(self) -> dict:
        """Engine-shaped snapshot plus per-shard serving metrics."""
        shards = {}
        for shard in range(self.config.shards):
            replicas = self.pools[shard]
            stats = self._shard_stats[shard]
            shards[str(shard)] = {
                "objects": dict(self.sharded.counts[shard]),
                "routed": stats["routed"],
                "subrequests": stats["subrequests"],
                "rows": stats["rows"],
                "failovers": stats["failovers"],
                "knn_skips": stats["knn_skips"],
                "inflight": stats["inflight"],
                "max_inflight": stats["max_inflight"],
                "queue_depth": sum(p.inflight_calls for p in replicas),
                "replicas": len(replicas),
                "pool_restarts": sum(p.restarts for p in replicas),
                "calls_failed": sum(p.calls_failed for p in replicas),
            }
        return {
            "metrics": self.metrics.report(),
            "cache": self.cache.stats(),
            "inflight": self._inflight,
            "running": self._running,
            "breakers": None,
            "supervisor": (
                {
                    "sweeps": sum(s.sweeps for s in self.supervisors),
                    "crashes_detected": sum(
                        s.crashes_detected for s in self.supervisors
                    ),
                    "respawns_detected": sum(
                        s.respawns_detected for s in self.supervisors
                    ),
                    "deadline_expiries": sum(
                        s.deadline_expiries for s in self.supervisors
                    ),
                    "pool_restarts": sum(
                        s.pool_restarts for s in self.supervisors
                    ),
                }
                if self.supervisors
                else None
            ),
            "pool": {
                "restarts": sum(
                    p.restarts for r in self.pools for p in r
                ),
                "calls_failed": sum(
                    p.calls_failed for r in self.pools for p in r
                ),
                "calls_abandoned": sum(
                    p.calls_abandoned for r in self.pools for p in r
                ),
            },
            "faults_injected": (
                self.injector.counts() if self.injector is not None else None
            ),
            "partition": {
                "mode": self.sharded.pmap.mode,
                "shards": self.config.shards,
                "replicas": self.config.replicas,
                "backend": self.config.backend,
                "grid": f"{self.sharded.pmap.gx}x{self.sharded.pmap.gy}",
            },
            "leases": self.leases.stats(),
            "ledger": self.ledger.stats(),
            "shards": shards,
        }

    def __repr__(self) -> str:
        state = (
            "draining" if self._draining and self._running
            else "running" if self._running else "stopped"
        )
        return (
            f"<ShardRouter {state} shards={self.config.shards} "
            f"replicas={self.config.replicas} mode={self.config.mode} "
            f"inflight={self._inflight}>"
        )
