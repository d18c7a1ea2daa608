"""Execution backend of the serving engine: forked workers or threads.

A pool serves packed :class:`~repro.rtree.flat.FlatRTree` trees only —
the paged node R*-tree is the paper's instrument, not a serving index —
and refuses any other tree when it is built.  The process mode is a task
source of the one process substrate,
:class:`~repro.recovery.procs.PipedWorkers` (the same one the forked join
of :mod:`repro.join.mp` runs on): the workers are forked with this pool's
tree registry as their start argument, so every worker — and every
replacement forked after a death — inherits the trees' arrays through
copy-on-write, the process-level analogue of the paper's shared virtual
memory, and two live pools cannot see each other's trees.  Only
primitive arguments (tree names, rect tuples, coordinates) travel to the
workers and only the answers' columns (:mod:`repro.geometry.rows`) travel
back; no tree is ever pickled, and an answer is gathered from the
columns without one ``Entry`` being made.

On platforms without ``fork`` (or with ``processes=0``) the pool degrades
to a thread executor over the very same execution functions — correct,
GIL-bound, and sufficient for tests and small deployments.

Every call through :meth:`WorkerPool.run` is **supervised**: it carries a
call id and a deadline, and it always terminates in a typed outcome — the
value, a :class:`WorkerError` (worker exception, ``worker-died``,
``deadline``, ``pool-closed``), or a propagated cancellation — never a
silently pending future.  Nothing is
polled.  A worker holds one call at a time and the pool knows which, so a
death is an event that fails exactly that call, at once, and is recorded
as ``SUP_WORKER_CRASH_DETECTED`` / ``SUP_WORKER_RESPAWNED`` with its
victim; a call's deadline runs from hand-off to a worker (time spent
queued behind other calls is not the worker's fault), and when it fires
the holder is killed and replaced — a hung worker never keeps its slot.
A fresh worker has nothing to build before its first answer, so that
clock never charges a call for a cold start.
Fault directives from a :class:`~repro.faults.injector.FaultInjector`
ride along to the worker, and the pool emits the ``SUP_CALL_*`` side of
the resilience ledger; the retry that answers a failure is the tier's
(:mod:`repro.service.frontdoor`).
"""

from __future__ import annotations

import asyncio
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Mapping, Optional, Sequence

import numpy as np

from ..faults import FaultDirective, FaultInjector, apply_directive
from ..geometry.rect import Rect
from ..geometry.rows import PairTable, RowSet
from ..join.sequential import sequential_join
from ..query.batch import multi_window_query
from ..recovery.procs import PipedWorkers, fork_available
from ..rtree.flat import is_flat, knn_rows, serving_refusal, window_rows
from ..rtree.query import nearest_neighbors, window_query
from ..trace import NULL_TRACER, EventKind, Tracer

__all__ = ["WorkerError", "WorkerPool", "fork_available", "window_filtered"]

#: The deadline of a fork-mode call given none: it still bounds a *hung*
#: worker whose caller set no deadline (a dead one is reported at once).
DEFAULT_TIMEOUT_S = 30.0


class WorkerError(RuntimeError):
    """A worker-pool call failed: crash, hang past deadline, or a raised
    exception — always typed, always picklable, so the caller's future is
    guaranteed to resolve (never a silently pending future).

    ``cause_type`` names the original exception class (or the synthetic
    reason: ``"worker-died"``, ``"deadline"``, ``"pool-closed"``);
    ``call_id`` threads the pool-call identity through to the retry rule
    so the trace ledger can match each failure to its retry or give-up.
    """

    def __init__(
        self,
        message: str,
        *,
        cause_type: str = "WorkerError",
        call_id: int = -1,
        kind: str = "",
    ):
        super().__init__(message)
        self.cause_type = cause_type
        self.call_id = call_id
        self.kind = kind

    def __reduce__(self):
        return (
            _rebuild_worker_error,
            (str(self), self.cause_type, self.call_id, self.kind),
        )


def _rebuild_worker_error(message, cause_type, call_id, kind):
    return WorkerError(
        message, cause_type=cause_type, call_id=call_id, kind=kind
    )


# -- execution functions (run inside a worker process or thread) --------------
def _windows_on(trees, name: str, rects: Sequence[tuple]) -> list[RowSet]:
    """One shared traversal answering a batch of window rects."""
    answers = multi_window_query(trees[name], [Rect(*r) for r in rects])
    return [window_rows(found).sorted() for found in answers]


def _knn_on(trees, name: str, x: float, y: float, k: int) -> RowSet:
    return knn_rows(nearest_neighbors(trees[name], x, y, k=k))


def _join_on(
    trees, name_r: str, name_s: str, window: Optional[tuple]
) -> PairTable:
    tree_r, tree_s = trees[name_r], trees[name_s]
    pairs = sequential_join(tree_r, tree_s).pairs
    return window_filtered(tree_r, tree_s, pairs, window)


def window_filtered(
    tree_r, tree_s, pairs: PairTable, window: Optional[tuple]
) -> PairTable:
    """*pairs* in canonical (sorted) order, restricted — when a window is
    given — to the pairs whose two objects both intersect it."""
    if window is not None:
        rect = Rect(*window)
        keep_r = window_rows(window_query(tree_r, rect)).oids
        keep_s = window_rows(window_query(tree_s, rect)).oids
        pairs = pairs[np.isin(pairs.left, keep_r) & np.isin(pairs.right, keep_s)]
    return pairs.sorted()


def _shard_join_on(
    trees,
    name_r: str,
    name_s: str,
    window: Optional[tuple],
    pmap,
    shard: int,
) -> PairTable:
    """One shard's join contribution (sharded tier): the local filter
    pairs whose reference point *shard* owns under *pmap*.  The
    :class:`~repro.shard.partition.PartitionMap` is a small frozen value
    object of primitives, so it pickles into the fork cheaply — unlike
    trees, which never travel."""
    from ..shard.ops import shard_join_pairs  # lazy: shard imports service

    return shard_join_pairs(
        trees[name_r], trees[name_s], pmap, shard, window
    )


_EXEC_FNS = {
    "windows": _windows_on,
    "knn": _knn_on,
    "join": _join_on,
    "shard_join": _shard_join_on,
}


def _fork_call(trees, call: tuple):
    """Worker-side dispatch: apply any fault directive, then execute
    against the tree registry inherited at fork time.  A ``crash``
    directive kills this worker process outright (``os._exit``) — the
    parent observes the death, exactly like a real segfault.
    """
    kind, directive, args = call
    if directive is not None:
        apply_directive(directive, hard_crash=True)
    return _EXEC_FNS[kind](trees, *args)


def _inline_call(
    trees, kind: str, directive: Optional[FaultDirective], args: tuple
):
    """Thread-fallback dispatch: crashes surface as :class:`InjectedCrash`."""
    if directive is not None:
        apply_directive(directive, hard_crash=False)
    return _EXEC_FNS[kind](trees, *args)


class _Call:
    """Parent-side record of one call from :meth:`WorkerPool.run`."""

    __slots__ = ("call_id", "kind", "args", "future", "timeout_s", "timer",
                 "faulted")

    def __init__(self, call_id, kind, args, future, timeout_s):
        self.call_id = call_id
        self.kind = kind
        self.args = args
        self.future = future
        self.timeout_s = timeout_s
        self.timer = None
        self.faulted = False

    def fail(self, message: str, cause_type: str) -> None:
        if not self.future.done():
            self.future.set_exception(
                WorkerError(
                    f"call {self.call_id} ({self.kind}) {message}",
                    cause_type=cause_type,
                    call_id=self.call_id,
                    kind=self.kind,
                )
            )


class WorkerPool:
    """Executes query work for the engine, off the event loop.

    *trees* maps names to packed trees; any other tree is a
    ``ValueError`` naming it.  ``processes > 0`` asks for that many forked
    workers; 0 (or a platform without ``fork``, with a warning) selects
    the thread fallback.
    ``injector`` enables fault injection on calls; ``tracer`` receives
    the ``SUP_*`` ledger.  A fork-mode call given no timeout runs under
    :data:`DEFAULT_TIMEOUT_S`; thread-mode calls always resolve and use
    the caller's timeout verbatim.
    """

    def __init__(
        self,
        trees: Mapping[str, object],
        processes: int = 0,
        *,
        injector: Optional[FaultInjector] = None,
        tracer: Tracer = NULL_TRACER,
        label: str = "",
        call_id_base: int = 0,
    ):
        if processes < 0:
            raise ValueError("processes must be >= 0")
        if call_id_base < 0:
            raise ValueError("call_id_base must be >= 0")
        for name, tree in trees.items():
            if not is_flat(tree):
                raise serving_refusal(f"tree {name!r} is a {type(tree).__name__}")
        self.trees = dict(trees)
        self.requested_processes = processes
        self.injector = injector
        self.tracer = tracer
        #: Names this pool in the ``SUP_*`` ledger.  A single-pool engine
        #: leaves it empty; the sharded tier labels each replica pool so
        #: per-pool deaths stay distinguishable in one stream.
        self.label = label
        #: Start of this pool's call-id range.  Call ids key the
        #: fault/recovery ledgers (``FLT_INJECT_* .call`` vs
        #: ``SUP_CALL_*``), so pools sharing one tracer must carve out
        #: disjoint ranges or their ledger entries collide.
        self._call_seq = call_id_base
        self._workers: Optional[PipedWorkers] = None
        self._loop = None  # the loop whose readers deliver worker events
        self._executor: Optional[ThreadPoolExecutor] = None
        self.forked = False
        self._inflight: dict[int, _Call] = {}
        self.calls_failed = 0
        self.calls_abandoned = 0
        #: Deaths nobody asked for (crash, external kill), the
        #: replacements forked, and the workers this pool killed itself
        #: because the call they held ran out of time or lost its caller.
        self.crashes_detected = 0
        self.respawns_detected = 0
        self.workers_killed = 0

    # -- life cycle -----------------------------------------------------------
    def start(self) -> None:
        processes = self.requested_processes
        if processes > 0 and not fork_available():
            warnings.warn(
                "the 'fork' start method is unavailable on this platform; "
                "the service worker pool falls back to threads",
                RuntimeWarning,
                stacklevel=2,
            )
            processes = 0
        if processes > 0:
            self._workers = PipedWorkers(processes, _fork_call, (self.trees,), self)
            self._workers.start()
            self.forked = True
        else:
            threads = max(2, min(8, os.cpu_count() or 2))
            self._executor = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="repro-service"
            )

    async def close(self) -> None:
        """Release the backend; a call still in flight fails typed."""
        if self._workers is not None:
            workers, self._workers = self._workers, None
            workers.close()
            for call in self._inflight.values():
                call.fail("lost its pool: closed", "pool-closed")
        if self._executor is not None:
            executor, self._executor = self._executor, None
            await asyncio.get_running_loop().run_in_executor(
                None, partial(executor.shutdown, True)
            )

    def worker_pids(self) -> frozenset[int]:
        """PIDs of the currently live forked workers (empty in thread mode)."""
        return frozenset() if self._workers is None else self._workers.pids()

    @property
    def inflight_calls(self) -> int:
        return len(self._inflight)

    # -- submission -----------------------------------------------------------
    async def run(self, kind: str, *args, timeout_s: Optional[float] = None):
        """Run one supervised execution; awaitable from the event loop.

        Raises :class:`WorkerError` on any failure (worker exception,
        death, deadline) — the future always resolves.  ``timeout_s``
        bounds this single attempt, from hand-off to a worker; retrying
        is the caller's policy.
        """
        if kind not in _EXEC_FNS:
            raise KeyError(f"unknown execution kind {kind!r}")
        workers = self._workers
        if timeout_s is None and workers is not None:
            timeout_s = DEFAULT_TIMEOUT_S
        loop = asyncio.get_running_loop()
        call_id = self._call_seq
        self._call_seq += 1
        call = _Call(call_id, kind, args, loop.create_future(), timeout_s)
        self._inflight[call_id] = call
        try:
            if timeout_s is not None and timeout_s <= 0:
                call.fail("was given no time at all", "deadline")
            elif workers is not None:
                if self._loop is not loop:
                    self._loop = loop
                    workers.watch(loop)
                workers.submit(call_id)
            else:
                self._run_in_thread(loop, call)
            value = await call.future
            if call.faulted and self.tracer.enabled:
                # A faulted call that completed anyway (short hang, slow
                # I/O): close its ledger entry explicitly.
                self.tracer.emit(EventKind.SUP_CALL_OK, call=call_id)
            return value
        except WorkerError as exc:
            self.calls_failed += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    EventKind.SUP_CALL_FAILED,
                    call=exc.call_id,
                    op=kind,
                    error=exc.cause_type,
                )
            raise
        except asyncio.CancelledError:
            self.calls_abandoned += 1
            if self._workers is not None:
                # Nobody waits for it any more: unqueue it, or free the
                # worker that holds it.
                self._workers.drop(call_id)
            if self.tracer.enabled:
                self.tracer.emit(EventKind.SUP_CALL_ABANDONED, call=call_id)
            raise
        finally:
            if call.timer is not None:
                call.timer.cancel()
            del self._inflight[call_id]

    def _directive(self, call: _Call) -> Optional[FaultDirective]:
        if self.injector is None:
            return None
        directive = self.injector.worker_directive(call.call_id)
        call.faulted = directive is not None
        return directive

    def _expire(self, call: _Call) -> None:
        if call.future.done():
            return
        if self._workers is not None:
            # The timer runs from hand-off, so a worker holds the call:
            # a hung worker must not keep its slot.
            self._workers.drop(call.call_id)
        call.fail(
            f"exceeded its {call.timeout_s}s deadline (hung or slow worker)",
            "deadline",
        )

    # -- the substrate's sink (fork mode) --------------------------------------
    def handoff(self, call_id: int, pid: int) -> tuple:
        """An idle worker takes the call: fault decision and attempt clock
        both start here, so neither is spent on a call that never runs."""
        call = self._inflight[call_id]
        if call.timeout_s is not None:
            call.timer = self._loop.call_later(
                call.timeout_s, self._expire, call
            )
        return call.kind, self._directive(call), call.args

    def done(self, call_id: int, ok: bool, value) -> None:
        call = self._inflight[call_id]
        if ok:
            if not call.future.done():
                call.future.set_result(value)
        else:
            # Always a typed WorkerError, whatever the worker raised.
            call.fail("failed: %s: %s" % value, value[0])

    def died(self, call_id, pid, exitcode, killed, replacement_pid) -> None:
        traced = self.tracer.enabled
        if killed:
            self.workers_killed += 1
        else:
            self.crashes_detected += 1
            if traced:
                payload = {"pid": pid, "pool": self.label, "exitcode": exitcode}
                if call_id is not None:
                    payload["call"] = call_id
                self.tracer.emit(EventKind.SUP_WORKER_CRASH_DETECTED, **payload)
        if replacement_pid is None:
            return  # reaped as the pool closed: nothing was forked
        self.respawns_detected += 1
        if traced:
            self.tracer.emit(
                EventKind.SUP_WORKER_RESPAWNED,
                pid=replacement_pid,
                pool=self.label,
            )
        if call_id is not None:
            self._inflight[call_id].fail(
                f"lost its worker: pid {pid} died with exit code {exitcode}",
                "worker-died",
            )

    # -- the thread fallback ---------------------------------------------------
    def _run_in_thread(self, loop, call: _Call) -> None:
        if self._executor is None:
            raise RuntimeError("worker pool is not started")
        if call.timeout_s is not None:
            # A plain timer failing the future is much cheaper per call
            # than asyncio.wait_for (no wrapper coroutine, no cancellation
            # plumbing) — and this is the hot path of every request.
            call.timer = loop.call_later(call.timeout_s, self._expire, call)
        directive = self._directive(call)

        def _thread_fn(trees=self.trees):
            try:
                return _inline_call(trees, call.kind, directive, call.args)
            except WorkerError:
                raise
            except BaseException as exc:
                raise WorkerError(
                    f"worker call {call.call_id} ({call.kind}) failed: "
                    f"{type(exc).__name__}: {exc}",
                    cause_type=type(exc).__name__,
                    call_id=call.call_id,
                    kind=call.kind,
                ) from exc

        thread_future = loop.run_in_executor(self._executor, _thread_fn)
        thread_future.add_done_callback(
            lambda tf, fut=call.future: _settle_from(tf, fut)
        )

    # -- convenience ----------------------------------------------------------
    async def windows(
        self, name: str, rects: Sequence[tuple],
        timeout_s: Optional[float] = None,
    ) -> list[RowSet]:
        return await self.run("windows", name, list(rects), timeout_s=timeout_s)

    def __repr__(self) -> str:
        mode = (
            f"fork:{self.requested_processes}" if self.forked else "threads"
        )
        return (
            f"<WorkerPool {mode} trees={sorted(self.trees)} "
            f"inflight={len(self._inflight)} crashes={self.crashes_detected}>"
        )


def _settle_from(source: asyncio.Future, target: asyncio.Future) -> None:
    """Copy a thread-executor future's outcome onto the supervised future."""
    if target.done():
        source.exception()  # consume, avoid 'exception never retrieved'
        return
    if source.cancelled():
        target.cancel()
        return
    exc = source.exception()
    if exc is not None:
        target.set_exception(exc)
    else:
        target.set_result(source.result())
