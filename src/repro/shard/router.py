"""The shard router: a shared-nothing serving tier over K worker pools.

``ShardRouter`` is the sharded sibling of
:class:`~repro.service.engine.Engine` and *is* the same front door:
both subclass :class:`~repro.service.frontdoor.FrontDoor`, which owns
validation, admission, the cache, the deadline, the ``SVC_*`` ledger,
``start``/``stop`` and the common ``snapshot()`` keys — so load
generators, metrics sinks and the ``service-ledger`` spec's monitor
(``protocol:service-ledger``) work on either unchanged.  This module holds only the sharded execution plan behind the
hooks a tier implements (``_execute``, ``_start_backend`` /
``_stop_backend``, ``_tree_names``):

* the dataset is **spatially partitioned** (:mod:`repro.shard.partition`)
  into K shards, each owning its own R-tree(s) served by its own
  :class:`~repro.service.workers.WorkerPool` — shared-nothing, the
  architecture the paper's closing section names as the step beyond its
  shared-virtual-memory model;
* a request **fans out only to the shards its geometry overlaps** —
  concatenate + unique over the shards' oid columns for windows, a
  best-first pruning merge for kNN (a shard is queried only while its
  content box's mindist can still beat the current k-th best), and
  reference-point duplicate elimination for joins — every decision
  emitted as an ``SHD_*`` event the
  :class:`~repro.trace.checkers.ShardAccountingChecker` re-derives from
  the announced shard geometry;
* each shard runs **R replica pools** with round-robin read routing: a
  crashed or hung replica fails the attempt — a crash at once, as
  ``worker-died``, a hang at the attempt deadline — and the sub-request
  **fails over** to the next replica (``SHD_FAILOVER``, carrying the
  cause) instead of failing the request — with one replica, the retry
  lands on the same pool, which has already forked the dead worker's
  replacement.  The attempt loop returns on the first success and a
  failed attempt's holder is dead, so every ``SHD_SUBREQUEST_SENT``
  settles exactly once (``DONE | FAILOVER | FAILED``, monitored by the
  ``shard-settlement`` spec) with no further bookkeeping; the router
  keeps nothing per sub-request.

The router deliberately has no micro-batcher: batching belongs to the
single-tree engine it can wrap per shard later.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from ..faults import FaultPlan
from ..geometry.rect import Rect
from ..geometry.rows import PairTable, RowSet
from ..service.frontdoor import FrontDoor, pool_totals
from ..service.model import (
    JoinRequest,
    KNNRequest,
    Request,
    RequestClass,
    WindowRequest,
    canonical_rect,
)
from ..service.resilience import WorkerError
from ..service.workers import WorkerPool
from ..trace import EventKind
from .ops import knn_shard_order, merge_knn
from .partition import ShardedDataset, build_sharded

__all__ = ["ShardRouter", "ShardConfig"]

#: Each replica pool owns a disjoint call-id range this wide, so the
#: ``FLT_INJECT_* .call`` / ``SUP_CALL_*`` ledgers of many pools sharing
#: one tracer reconcile per call, never across pools.
_CALL_ID_STRIDE = 1_000_000
#: Concurrent join executions; each fans out to the shards it overlaps.
JOIN_LIMIT = 4
#: Attempts per sub-request across replicas before the request errors.
MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class ShardConfig:
    """Knobs of the sharded tier.

    ``shards`` / ``mode`` — the partitioner
    (:class:`~repro.shard.partition.Partitioner`);
    ``replicas``         — replica pools per shard (round-robin reads,
                           failover target on a crashed attempt, up to
                           :data:`MAX_ATTEMPTS` attempts);
    ``backend``          — per-shard tree backend (``node`` | ``flat``);
    ``workers``          — forked processes per replica pool (0 = threads);
    the remaining knobs mirror
    :class:`~repro.service.engine.EngineConfig` and behave identically
    (the join slots are :data:`JOIN_LIMIT`).
    """

    shards: int = 4
    mode: str = "grid"
    replicas: int = 1
    backend: str = "node"
    workers: int = 0
    max_inflight: int = 128
    attempt_timeout_s: Optional[float] = 2.0
    cache_capacity: int = 1024
    faults: Optional[FaultPlan] = None


class ShardRouter(FrontDoor):
    """Routes spatial queries across per-shard replica worker pools."""

    def __init__(
        self,
        datasets: Mapping[str, object],
        config: Optional[ShardConfig] = None,
        *,
        sinks: Sequence = (),
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(config or ShardConfig(), sinks=sinks, clock=clock)
        self.join_limit = JOIN_LIMIT
        self.sharded: ShardedDataset = build_sharded(
            datasets,
            self.config.shards,
            mode=self.config.mode,
            backend=self.config.backend,
        )
        self.pools: list[list[WorkerPool]] = []
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
            self.pools.append(replicas)
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

    # -- the execution plan ---------------------------------------------------
    def _tree_names(self):
        return self.sharded.trees[0]

    def _start_backend(self) -> dict:
        for replicas in self.pools:
            for pool in replicas:
                pool.start()
        self._announce_topology()
        return {
            "shards": self.config.shards,
            "replicas": self.config.replicas,
            "mode": self.config.mode,
            "backend": self.config.backend,
        }

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

    async def _stop_backend(self) -> None:
        for replicas in self.pools:
            for pool in replicas:
                await pool.close()

    # -- routing --------------------------------------------------------------
    async def _execute(self, request: Request, deadline: Optional[float]):
        rid = next(self._req_seq)
        if isinstance(request, WindowRequest):
            value = await self._route_window(rid, request, deadline)
        elif isinstance(request, KNNRequest):
            value = await self._route_knn(rid, request, deadline)
        else:
            value = await self._route_join(rid, request, deadline)
        return value, 0

    async def _route_window(
        self, rid: int, request: WindowRequest, deadline
    ) -> RowSet:
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
        value = RowSet.union(values[0] for values in parts)
        total = sum(len(values[0]) for values in parts)
        self._emit(
            EventKind.SHD_MERGED, req=rid, cls="window",
            rows=len(value), parts=total, duplicates=total - len(value),
        )
        return value

    async def _route_knn(
        self, rid: int, request: KNNRequest, deadline
    ) -> RowSet:
        x, y, k = float(request.x), float(request.y), int(request.k)
        order = knn_shard_order(self.sharded, request.tree, x, y)
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
                self._emit(
                    EventKind.SHD_SHARD_SKIPPED, req=rid, shard=shard,
                    mindist=bound, kth=best[-1][0],
                )
                continue
            found = await self._slotted(
                rid, shard, RequestClass.KNN,
                "knn", (request.tree, x, y, k), deadline,
            )
            total += len(found)
            merge_knn(best, found, k)
        value = RowSet.from_knn((d, oid) for d, _, oid in best)
        self._emit(
            EventKind.SHD_MERGED, req=rid, cls="knn",
            rows=len(value), parts=total, duplicates=total - len(value),
        )
        return value

    async def _route_join(
        self, rid: int, request: JoinRequest, deadline
    ) -> PairTable:
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
        value = PairTable.concat(parts).sorted()
        # Sorted, so a pair two shards reported sits next to its twin.
        duplicates = int(
            np.count_nonzero(
                (value.left[1:] == value.left[:-1])
                & (value.right[1:] == value.right[:-1])
            )
        )
        self._emit(
            EventKind.SHD_MERGED, req=rid, cls="join",
            rows=len(value), parts=len(value), duplicates=duplicates,
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
            return [await self._slotted(rid, shard, cls, kind, args, deadline)]
        tasks = [
            asyncio.ensure_future(
                self._slotted(rid, shard, cls, kind, args, deadline)
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

    def _slotted(self, rid: int, shard: int, cls: RequestClass, *call):
        """:meth:`_sub` holding one of the class's execution slots."""
        return self._in_slot(cls, self._sub, rid, shard, cls, *call)

    async def _sub(
        self,
        rid: int,
        shard: int,
        cls: RequestClass,
        kind: str,
        args: tuple,
        deadline: Optional[float],
    ):
        """One routed sub-request: execution with replica failover.

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
        """
        stats = self._shard_stats[shard]
        stats["subrequests"] += 1
        stats["inflight"] += 1
        stats["max_inflight"] = max(stats["max_inflight"], stats["inflight"])
        replicas = self.config.replicas
        start = self._rr[shard]
        self._rr[shard] = (start + 1) % replicas
        pending_sent = False  # the current attempt's SENT is unsettled
        try:
            for attempt in range(MAX_ATTEMPTS):
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
                self._emit(
                    EventKind.SHD_SUBREQUEST_SENT,
                    req=rid, shard=shard, replica=replica,
                    attempt=attempt, op=kind,
                )
                pending_sent = True
                try:
                    value = await pool.run(kind, *args, timeout_s=timeout_s)
                except WorkerError as exc:
                    # Decide give-up vs failover *now*, before promising
                    # a resend: out of attempts, or out of budget for
                    # another one.
                    out_of_budget = (
                        deadline is not None and deadline - self._now() <= 0
                    )
                    if attempt + 1 >= MAX_ATTEMPTS or out_of_budget:
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
                    self._emit(
                        EventKind.SHD_FAILOVER,
                        req=rid, shard=shard, replica=replica,
                        next_replica=(start + attempt + 1) % replicas,
                        attempt=attempt, error=exc.cause_type,
                    )
                    pending_sent = False
                    continue
                rows = self._row_count(kind, value)
                stats["rows"] += rows
                self._emit(
                    EventKind.SHD_SUBREQUEST_DONE,
                    req=rid, shard=shard, replica=replica,
                    attempt=attempt, rows=rows,
                )
                pending_sent = False
                return value
            raise AssertionError("unreachable: attempts exhausted silently")
        except asyncio.CancelledError:
            # The awaiting request timed out or was cancelled: if the
            # attempt's SENT is still unsettled, the sub-request settles
            # as FAILED so the fan-out ledger balances.  With no SENT
            # pending there is nothing to settle and FAILED would
            # unbalance it instead.
            if pending_sent:
                self._emit(
                    EventKind.SHD_SUBREQUEST_FAILED,
                    req=rid, shard=shard, attempts=attempt + 1,
                    error="abandoned",
                )
            raise
        finally:
            stats["inflight"] -= 1

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
            self._emit(
                EventKind.SHD_SUBREQUEST_FAILED,
                req=rid, shard=shard, attempts=attempts, error=error,
            )
        return exc

    @staticmethod
    def _row_count(kind: str, value) -> int:
        if kind == "windows":
            return sum(len(part) for part in value)
        return len(value)

    # -- helpers --------------------------------------------------------------
    def _emit_routed(
        self, rid: int, cls: str, route: Sequence[int], **geometry
    ) -> None:
        for shard in route:
            self._shard_stats[shard]["routed"] += 1
        self._emit(
            EventKind.SHD_REQUEST_ROUTED,
            req=rid, cls=cls, fanout=len(route),
            shards=",".join(str(s) for s in route),
            **geometry,
        )

    def snapshot(self) -> dict:
        """The common keys plus routing and per-shard metrics."""
        shards = {}
        for shard in range(self.config.shards):
            replicas = self.pools[shard]
            shards[str(shard)] = {
                "objects": dict(self.sharded.counts[shard]),
                **self._shard_stats[shard],
                "queue_depth": sum(p.inflight_calls for p in replicas),
                "replicas": len(replicas),
                "crashes_detected": sum(p.crashes_detected for p in replicas),
                "calls_failed": sum(p.calls_failed for p in replicas),
            }
        return {
            **super().snapshot(),
            # The engine's key, kept for one snapshot shape (perf reads it).
            "breakers": None,
            **pool_totals([p for replicas in self.pools for p in replicas]),
            "partition": {
                "mode": self.sharded.pmap.mode,
                "shards": self.config.shards,
                "replicas": self.config.replicas,
                "backend": self.config.backend,
                "grid": f"{self.sharded.pmap.gx}x{self.sharded.pmap.gy}",
            },
            "shards": shards,
        }
