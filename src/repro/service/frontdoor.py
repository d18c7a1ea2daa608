"""The serving front door, written once for every tier.

:class:`FrontDoor` is everything a request meets around its execution:

1. **validation** — unknown tree, ``k`` not an integer >= 1, a non-finite
   window corner or kNN point, a NaN timeout are one ``Status.ERROR``
   naming the field, decided before a cache key is formed;
2. **admission control** — a global in-flight bound, a per-class
   waiting-room bound and per-class execution slots; a request over a
   bound is rejected immediately rather than queued unboundedly;
3. the **result cache** (LRU, canonical query keys) around the
   execution;
4. the per-request **deadline** — the admission timeout is the request's
   whole fault budget, handed to the execution plan — and caller
   cancellation;
5. the **attempt rule** of a worker call, one for both tiers: each
   attempt's clock is ``attempt_timeout_s`` clipped to the remaining
   budget, and a failed attempt is retried at once (``SUP_CALL_RETRY``)
   until :data:`MAX_ATTEMPTS` attempts or the budget are spent
   (``SUP_CALL_GIVEUP``);
6. every transition as an ``SVC_*`` event on a wall-clocked
   :class:`~repro.trace.tracer.Tracer` with :class:`ServiceMetrics` as a
   standing sink, so sinks, timelines and the ``service-ledger`` spec's
   monitor (``protocol:service-ledger``) work on every tier alike;
7. the **life cycle**: ``start()``, and a ``stop()`` that stops admitting,
   drains every in-flight request, then releases the backend.

A tier supplies only its execution plan, through three hooks:

* ``_execute(request, deadline) -> (value, batch_size)`` — answer one
  validated cache miss inside the deadline budget, taking a class slot
  with :meth:`FrontDoor._in_slot` around each backend call and running
  its attempts by :meth:`FrontDoor._attempt_clock` and
  :meth:`FrontDoor._retry`;
* ``_start_backend() -> dict`` / ``async _stop_backend()`` — bring the
  pools up (returning the tier's fields of ``SVC_ENGINE_START``) and
  down;
* ``_tree_names()`` — the served tree names (any container).

:class:`~repro.service.engine.Engine` (batcher + one pool) and
:class:`~repro.shard.router.ShardRouter` (routing + replica failover)
are the two tiers.  Nothing here knows which one it serves.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional, Sequence

from ..faults import FaultInjector
from ..rtree.query import (
    WINDOW_FIELDS, coordinate_error, require_count, require_k,
)
from ..trace import EventKind, Tracer
from .cache import MISS, ResultCache
from .metrics import ServiceMetrics
from .model import (
    JoinRequest,
    KNNRequest,
    Request,
    RequestClass,
    Response,
    Status,
    WindowRequest,
    canonical_rect,
)
from .workers import WorkerError

__all__ = ["FrontDoor", "pool_totals"]

_UNSET = object()

#: Per-class bound on requests waiting for an execution slot, and the
#: slots of the two cheap classes (a batch counts once; joins differ per
#: tier: ``join_limit``).
QUEUE_LIMIT = 1024
WINDOW_LIMIT = 32
KNN_LIMIT = 16
#: A request's whole budget unless ``submit`` is given a timeout.
DEFAULT_TIMEOUT_S = 10.0
#: Attempts a worker call gets, on either tier, before its request errors.
MAX_ATTEMPTS = 3

#: Each count setting's least value under which a tier still serves a
#: request.  A field the tier's config lacks is not checked.
_COUNT_FLOORS = {
    "workers": 0, "max_inflight": 1, "cache_capacity": 0, "shards": 1,
    "replicas": 1,
}


def _check_settings(config) -> None:
    """One ``ValueError`` naming the field and the value of the first
    setting under which the tier could serve no request: a count that is
    no integer (a bool is none) or under its floor, or an attempt
    timeout that is not above 0 (``None`` is no timeout)."""
    for name, floor in _COUNT_FLOORS.items():
        require_count(name, getattr(config, name, floor), floor)
    value = config.attempt_timeout_s
    if value is not None and not value > 0:
        raise ValueError(f"attempt_timeout_s must be > 0, got {value!r}")


def _elapsed(clock: Callable[[], float]) -> Callable[[], float]:
    """Seconds on *clock* since this call."""
    t0 = clock()
    return lambda: clock() - t0


def pool_totals(pools) -> dict:
    """The ``supervisor`` and ``pool`` snapshot blocks, summed over
    *pools*: the shape of one pool and of many is the same.  The
    ``supervisor`` block is the pools' own death / respawn counters."""

    def total(name: str) -> int:
        return sum(getattr(pool, name) for pool in pools)

    return {
        "supervisor": {
            "crashes_detected": total("crashes_detected"),
            "respawns_detected": total("respawns_detected"),
            "workers_killed": total("workers_killed"),
            # A pool is never re-forked whole; read by perf's probe.
            "pool_restarts": 0,
        },
        "pool": {
            "calls_failed": total("calls_failed"),
            "calls_abandoned": total("calls_abandoned"),
        },
    }


class FrontDoor:
    """Admission, deadline, cache and life cycle of one serving tier.

    *config* carries the fields both tiers' configs share (``max_inflight``,
    ``cache_capacity``, ``workers``, ``faults``), checked here for both; a
    tier sets ``join_limit``, its concurrent join executions.
    """

    def __init__(
        self,
        config,
        *,
        sinks: Sequence = (),
        clock: Callable[[], float] = time.monotonic,
    ):
        _check_settings(config)
        self.config = config
        self.metrics = ServiceMetrics()
        # The serving tier owns real time; tests inject a fake clock and
        # everything downstream (tracer, deadlines) follows it.  The parts
        # get a closure, not the bound ``_now``: no part refers back to the
        # tier, so a dropped tier is freed at once, not at the next full
        # collection.
        self._clock = _elapsed(clock)
        self.tracer = Tracer(clock=self._clock, sinks=[self.metrics, *sinks])
        self.cache = ResultCache(config.cache_capacity, tracer=self.tracer)
        self.injector = (
            FaultInjector(config.faults, tracer=self.tracer)
            if config.faults is not None and config.faults.active
            else None
        )
        self._running = False
        self._draining = False
        self._inflight = 0
        self._waiting = {cls: 0 for cls in RequestClass}
        self._sems: dict[RequestClass, asyncio.Semaphore] = {}
        self._idle: Optional[asyncio.Event] = None

    # -- the execution plan (the hooks a tier implements) ----------------------
    async def _execute(self, request: Request, deadline: Optional[float]):
        raise NotImplementedError

    def _start_backend(self) -> dict:
        raise NotImplementedError

    async def _stop_backend(self) -> None:
        raise NotImplementedError

    def _tree_names(self):
        raise NotImplementedError

    # -- life cycle -----------------------------------------------------------
    async def start(self) -> None:
        if self._running:
            raise RuntimeError(f"{type(self).__name__} already started")
        self._sems = {
            RequestClass.WINDOW: asyncio.Semaphore(WINDOW_LIMIT),
            RequestClass.KNN: asyncio.Semaphore(KNN_LIMIT),
            RequestClass.JOIN: asyncio.Semaphore(self.join_limit),
        }
        self._idle = asyncio.Event()
        self._idle.set()
        backend = self._start_backend()
        self._running = True
        self._draining = False
        self.tracer.emit(
            EventKind.SVC_ENGINE_START,
            trees=",".join(sorted(self._tree_names())),
            workers=self.config.workers,
            **backend,
            faulted=int(self.injector is not None),
        )

    async def stop(self) -> None:
        """Stop admitting, drain in-flight work, release the backend.

        The cached answers go too (the counters stay): a stopped tier's
        tracer is closed, so it never serves them again.
        """
        if not self._running:
            return
        self._draining = True
        await self._idle.wait()
        await self._stop_backend()
        self._running = False
        self.tracer.emit(
            EventKind.SVC_ENGINE_STOP,
            completed=self.metrics.completed,
            rejected=self.metrics.rejected,
            timeouts=self.metrics.timeouts,
        )
        self.tracer.close()
        self.cache.clear()

    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- front door -----------------------------------------------------------
    async def submit(self, request: Request, timeout=_UNSET) -> Response:
        """Serve one request; always returns a terminal :class:`Response`
        (admission rejections included) except on caller cancellation."""
        cls = request.cls
        t0 = self._now()
        self._emit(EventKind.SVC_REQUEST_SUBMITTED, cls)
        if not self._running or self._draining:
            return self._reject(
                cls, t0, "shutdown", "the tier is not accepting requests"
            )
        if self._inflight >= self.config.max_inflight:
            return self._reject(
                cls, t0, "capacity",
                f"in-flight limit {self.config.max_inflight} reached",
            )
        if self._waiting[cls] >= QUEUE_LIMIT:
            return self._reject(
                cls, t0, "queue",
                f"waiting-room limit {QUEUE_LIMIT} reached for "
                f"class {cls.value}",
            )
        if timeout is _UNSET:
            timeout = DEFAULT_TIMEOUT_S
        # An invalid request is admitted (the ledger is submitted =
        # admitted + rejected) but never cacheable: it fails before a
        # cache key is formed, so a NaN can neither look up nor insert.
        invalid = self._invalid(request, timeout)
        use_cache = (
            invalid is None
            and self.config.cache_capacity > 0
            and request.cacheable
        )
        self._inflight += 1
        self._idle.clear()
        self._emit(
            EventKind.SVC_REQUEST_ADMITTED,
            cls,
            cache=int(use_cache),
            inflight=self._inflight,
        )
        # The admission timeout is the request's whole fault budget:
        # every execution attempt fits inside it.
        deadline = None if timeout is None else t0 + timeout
        try:
            try:
                if invalid is not None:
                    raise ValueError(invalid)
                work = self._process(request, use_cache, t0, deadline)
                if timeout is not None:
                    response = await asyncio.wait_for(work, timeout)
                else:
                    response = await work
            except asyncio.TimeoutError:
                self._emit(EventKind.SVC_REQUEST_TIMEOUT, cls, cache=int(use_cache))
                return Response(
                    Status.TIMEOUT,
                    cls,
                    latency_s=self._now() - t0,
                    detail=f"timed out after {timeout}s",
                )
            except asyncio.CancelledError:
                self._emit(EventKind.SVC_REQUEST_CANCELLED, cls, cache=int(use_cache))
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
                batch=response.batch_size,
            )
            return response
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    def _invalid(self, request: Request, timeout) -> Optional[str]:
        """Why *request* cannot be served within *timeout*, naming the
        field — or None."""
        if timeout is not None and timeout != timeout:
            return (
                f"timeout must be None or a number of seconds, got "
                f"{timeout!r}"
            )
        if isinstance(request, JoinRequest):
            trees = (request.tree_r, request.tree_s)
        elif isinstance(request, (WindowRequest, KNNRequest)):
            trees = (request.tree,)
        else:
            return f"unknown request type {type(request).__name__}"
        known = self._tree_names()
        for name in trees:
            if name not in known:
                return f"unknown tree {name!r}; have {sorted(known)}"
        if isinstance(request, KNNRequest):
            try:
                require_k(request.k)
            except ValueError as exc:
                return str(exc)
            fields = (("x", request.x), ("y", request.y))
        elif request.window is None:
            return None
        else:
            try:
                corners = canonical_rect(request.window)
            except (AttributeError, TypeError, ValueError) as exc:
                return f"window is not a rectangle ({exc})"
            fields = zip(WINDOW_FIELDS, corners)
        return coordinate_error(fields)

    async def _process(
        self, request: Request, use_cache: bool, t0: float,
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
        value, batch_size = await self._execute(request, deadline)
        if use_cache:
            self.cache.put(key, value)
        return Response(
            Status.OK, cls, value=value,
            latency_s=self._now() - t0, batch_size=batch_size,
        )

    async def _in_slot(self, cls: RequestClass, work, *args):
        """``await work(*args)`` holding one of the class's execution
        slots; the wait for the slot counts against the waiting room."""
        self._waiting[cls] += 1
        try:
            await self._sems[cls].acquire()
        finally:
            self._waiting[cls] -= 1
        try:
            return await work(*args)
        finally:
            self._sems[cls].release()

    # -- the attempt rule -----------------------------------------------------
    def _attempt_clock(
        self, deadline: Optional[float], attempt: int, kind: str
    ) -> Optional[float]:
        """The clock of a worker call's *attempt* (0-based):
        ``attempt_timeout_s`` clipped to the remaining budget.  A budget
        spent before the first attempt is a typed ``deadline``
        :class:`WorkerError` that reaches no pool; a retry was decided on
        a live budget, so it goes out with what is left, at least 0 s
        (which its pool fails at once as ``deadline``)."""
        timeout_s = self.config.attempt_timeout_s
        if deadline is None:
            return timeout_s
        remaining = deadline - self._now()
        if remaining <= 0 and attempt == 0:
            raise WorkerError(
                "deadline budget exhausted before attempt 1",
                cause_type="deadline", kind=kind,
            )
        remaining = max(0.0, remaining)
        return remaining if timeout_s is None else min(timeout_s, remaining)

    def _retry(
        self, cls: RequestClass, attempts: int, failure: WorkerError,
        deadline: Optional[float],
    ) -> bool:
        """After *attempts* failed attempts of a call, whether to retry it
        at once: ``SUP_CALL_RETRY`` while attempts and budget are left,
        else ``SUP_CALL_GIVEUP``; either answers the pool's
        ``SUP_CALL_FAILED`` for *failure*."""
        remaining = None if deadline is None else deadline - self._now()
        if attempts >= MAX_ATTEMPTS or (remaining is not None and remaining <= 0):
            self._emit(
                EventKind.SUP_CALL_GIVEUP, cls, call=failure.call_id,
                attempts=attempts, error=failure.cause_type,
            )
            return False
        self._emit(
            EventKind.SUP_CALL_RETRY, cls, call=failure.call_id,
            attempt=attempts, remaining_s=remaining,
        )
        return True

    # -- helpers --------------------------------------------------------------
    def _now(self) -> float:
        return self._clock()

    def _emit(self, kind: EventKind, cls: Optional[RequestClass] = None, /, **data):
        """Emit *kind* if anyone listens; a positional *cls* is written
        as its ``cls`` field (the ``SHD_*`` events pass their own)."""
        if self.tracer.enabled:
            if cls is not None:
                data["cls"] = cls.value
            self.tracer.emit(kind, **data)

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
        """The keys every tier reports, JSON-able; each tier adds its
        backend's (``supervisor``, ``pool``, ``shards``)."""
        return {
            "metrics": self.metrics.report(),
            "cache": self.cache.stats(),
            "inflight": self._inflight,
            "running": self._running,
            "faults_injected": (
                self.injector.counts() if self.injector is not None else None
            ),
        }

    def __repr__(self) -> str:
        state = (
            "draining" if self._draining and self._running
            else "running" if self._running else "stopped"
        )
        return (
            f"<{type(self).__name__} {state} "
            f"trees={sorted(self._tree_names())} inflight={self._inflight}>"
        )
