"""Execution backend of the serving engine: forked workers or threads.

The process mode reuses the ``fork``-inherits-trees trick of
:mod:`repro.join.mp`: the tree registry is parked in a module-level
table (keyed per pool, so several live pools in one process never
clobber each other) immediately before the pool forks, and every worker
process inherits the in-memory R*-trees through copy-on-write — the
process-level analogue of the paper's shared virtual memory.  Only primitive arguments (tree names,
rect tuples, coordinates) travel to the workers and only oid tuples travel
back; no tree is ever pickled.

On platforms without ``fork`` (or with ``processes=0``) the pool degrades
to a thread executor over the very same execution functions — correct,
GIL-bound, and sufficient for tests and small deployments.

Every call through :meth:`WorkerPool.run` is **supervised**: it carries a
call id and an optional deadline, and it always terminates in a typed
outcome — the value, a :class:`~repro.service.resilience.WorkerError`
(worker exception, hard crash, deadline, pool restart), or a propagated
cancellation — never a silently pending future.  Fault directives from a
:class:`~repro.faults.injector.FaultInjector` ride along to the worker,
and the pool emits the ``SUP_CALL_*`` side of the resilience ledger.
:meth:`restart` re-forks the pool from the parent's tree registry (the
workers re-inherit every tree) and fails all in-flight calls so the
engine's retry layer re-enqueues them.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Mapping, Optional, Sequence

from ..faults import FaultDirective, FaultInjector, InjectedCrash, apply_directive
from ..geometry.rect import Rect
from ..join.sequential import sequential_join
from ..query.batch import multi_window_query
from ..rtree.query import nearest_neighbors, window_query
from ..trace import NULL_TRACER, EventKind, Tracer
from .resilience import WorkerError

__all__ = ["WorkerPool", "fork_available"]

#: Tree registries parked by the parent immediately before forking,
#: keyed per pool so several live pools in one process cannot clobber
#: each other: a replacement worker auto-forked after a crash re-reads
#: *its own* pool's entry, never another pool's.  Inherited by workers
#: through fork (copy-on-write); entries are dropped at pool close.
_WORK_TREES: dict[int, Mapping[str, object]] = {}
_POOL_KEYS = itertools.count(1)
#: Worker-side: which registry entry this worker's pool owns.
_POOL_KEY: Optional[int] = None


def _fork_init(pool_key: int) -> None:
    """Worker initializer: pin this worker to its pool's tree registry.

    Runs in every worker the pool forks — including replacements it
    auto-forks after a crash — so the binding survives worker churn.
    """
    global _POOL_KEY
    _POOL_KEY = pool_key


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# -- execution functions (run inside a worker process or thread) --------------
def _windows_on(trees, name: str, rects: Sequence[tuple]) -> list[tuple]:
    """One shared traversal answering a batch of window rects."""
    tree = trees[name]
    windows = [Rect(*r) for r in rects]
    answers = multi_window_query(tree, windows)
    return [tuple(sorted(e.oid for e in entries)) for entries in answers]


def _knn_on(trees, name: str, x: float, y: float, k: int) -> tuple:
    tree = trees[name]
    found = nearest_neighbors(tree, x, y, k=k) if tree.size else []
    return tuple((float(d), e.oid) for d, e in found)


def _join_on(
    trees, name_r: str, name_s: str, window: Optional[tuple]
) -> tuple:
    tree_r, tree_s = trees[name_r], trees[name_s]
    pairs = sequential_join(tree_r, tree_s).pairs
    return _window_filtered(tree_r, tree_s, pairs, window)


def _join_chunk_on(
    trees,
    name_r: str,
    name_s: str,
    window: Optional[tuple],
    index: int,
    n_chunks: int,
) -> tuple:
    """One chunk of a join split for resumable execution.

    The join plan (phase 1 of the parallel join) is deterministic given
    the trees, so every worker — including one forked after a crash —
    computes identical chunk boundaries; the engine gathers the chunks
    and retries only the missing ones after a worker death.  Chunk 0
    falls back to the whole join when the trees cannot be task-split
    (node trees of unequal heights), the other chunks then return
    nothing.
    """
    from ..join.mp import plan_join

    tree_r, tree_s = trees[name_r], trees[name_s]
    try:
        plan = plan_join(tree_r, tree_s, n_chunks)
    except ValueError:
        plan = None
    if not plan:
        if index > 0:
            return ()
        return _join_on(trees, name_r, name_s, window)
    base, extra = divmod(len(plan), n_chunks)
    start = index * base + min(index, extra)
    stop = start + base + (1 if index < extra else 0)
    pairs = plan.run(start, stop)
    return _window_filtered(tree_r, tree_s, pairs, window)


def _window_filtered(tree_r, tree_s, pairs, window: Optional[tuple]) -> tuple:
    if window is not None:
        rect = Rect(*window)
        keep_r = {e.oid for e in window_query(tree_r, rect)}
        keep_s = {e.oid for e in window_query(tree_s, rect)}
        pairs = [(r, s) for r, s in pairs if r in keep_r and s in keep_s]
    return tuple(sorted(pairs))


def _shard_join_on(
    trees,
    name_r: str,
    name_s: str,
    window: Optional[tuple],
    pmap,
    shard: int,
) -> tuple:
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
    "join_chunk": _join_chunk_on,
    "shard_join": _shard_join_on,
}


def _fork_call(kind: str, directive: Optional[FaultDirective], args: tuple):
    """Worker-side dispatch: apply any fault directive, then execute.

    Resolves the tree registry inherited at fork time.  A ``crash``
    directive kills this worker process outright (``os._exit``) — the
    parent observes a lost call, exactly like a real segfault.
    """
    if directive is not None:
        apply_directive(directive, hard_crash=True)
    return _EXEC_FNS[kind](_WORK_TREES[_POOL_KEY], *args)


def _inline_call(
    trees, kind: str, directive: Optional[FaultDirective], args: tuple
):
    """Thread-fallback dispatch: crashes surface as :class:`InjectedCrash`."""
    if directive is not None:
        apply_directive(directive, hard_crash=False)
    return _EXEC_FNS[kind](trees, *args)


class _InflightCall:
    """Parent-side record of one dispatched call (for the supervisor)."""

    __slots__ = ("call_id", "kind", "future", "deadline_at", "faulted")

    def __init__(self, call_id, kind, future, deadline_at, faulted):
        self.call_id = call_id
        self.kind = kind
        self.future = future
        self.deadline_at = deadline_at
        self.faulted = faulted


class WorkerPool:
    """Executes query work for the engine, off the event loop.

    ``processes > 0`` asks for that many forked workers; 0 (or a platform
    without ``fork``, with a warning) selects the thread fallback.
    ``injector`` enables fault injection on calls; ``tracer`` receives
    the ``SUP_CALL_*`` ledger.  ``default_timeout_s`` is the deadline a
    fork-mode call falls back to when :meth:`run` is given none: a
    hard-crashed fork never fires its ``apply_async`` callback, and a
    deadline-less in-flight entry is invisible to the supervisor's
    :meth:`expire_overdue` sweep — the call would pend forever (and
    ``Engine.stop`` would deadlock draining it).  Pass ``None`` only if
    you accept that risk; thread-mode calls always resolve and use the
    caller's timeout verbatim.
    """

    def __init__(
        self,
        trees: Mapping[str, object],
        processes: int = 0,
        *,
        injector: Optional[FaultInjector] = None,
        tracer: Tracer = NULL_TRACER,
        default_timeout_s: Optional[float] = 30.0,
        label: str = "",
        call_id_base: int = 0,
    ):
        if processes < 0:
            raise ValueError("processes must be >= 0")
        if default_timeout_s is not None and default_timeout_s <= 0:
            raise ValueError("default_timeout_s must be positive (or None)")
        if call_id_base < 0:
            raise ValueError("call_id_base must be >= 0")
        self.trees = dict(trees)
        self.requested_processes = processes
        self.injector = injector
        self.tracer = tracer
        self.default_timeout_s = default_timeout_s
        #: Names this pool in the ``SUP_*`` ledger.  A single-pool engine
        #: leaves it empty; the sharded tier labels each replica pool so
        #: per-pool restart counters stay distinguishable in one stream.
        self.label = label
        #: Start of this pool's call-id range.  Call ids key the
        #: fault/recovery ledgers (``FLT_INJECT_* .call`` vs
        #: ``SUP_CALL_*``), so pools sharing one tracer must carve out
        #: disjoint ranges or their ledger entries collide.
        self._call_seq = call_id_base
        self._pool = None
        self._pool_key: Optional[int] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self.forked = False
        self._inflight: dict[int, _InflightCall] = {}
        self.restarts = 0
        self.calls_failed = 0
        self.calls_abandoned = 0

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
            self._fork_pool(processes)
            self.forked = True
        else:
            threads = max(2, min(8, os.cpu_count() or 2))
            self._executor = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="repro-service"
            )

    def _fork_pool(self, processes: int) -> None:
        # The registry entry must STAY parked for the pool's lifetime:
        # multiprocessing.Pool forks a replacement from the parent each
        # time a worker dies, and a replacement forked without the entry
        # would inherit no trees and fail every call it serves.  The
        # parent holds ``self.trees`` anyway, so this costs nothing.
        self._pool_key = next(_POOL_KEYS)
        _WORK_TREES[self._pool_key] = self.trees
        context = multiprocessing.get_context("fork")
        self._pool = context.Pool(
            processes, initializer=_fork_init, initargs=(self._pool_key,)
        )

    def _release_trees(self) -> None:
        if self._pool_key is not None:
            _WORK_TREES.pop(self._pool_key, None)
            self._pool_key = None

    def restart(self) -> int:
        """Tear down the forked pool and re-fork it from the tree registry.

        The fresh workers re-inherit every tree through fork, exactly as
        at :meth:`start`.  All in-flight calls fail with a typed
        :class:`WorkerError` so their awaiters re-enqueue through the
        engine's retry layer; returns the number of calls so failed.
        Thread mode has nothing to respawn and is a no-op.
        """
        if self._pool is None:
            return 0
        dead, self._pool = self._pool, None
        dead.terminate()
        dead.join()
        self._release_trees()
        self._fork_pool(self.requested_processes)
        self.restarts += 1
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.SUP_POOL_RESTARTED,
                restarts=self.restarts,
                pool=self.label,
            )
        failed = 0
        for entry in list(self._inflight.values()):
            if not entry.future.done():
                entry.future.set_exception(
                    WorkerError(
                        "worker pool restarted with the call in flight",
                        cause_type="pool-restarted",
                        call_id=entry.call_id,
                        kind=entry.kind,
                    )
                )
                failed += 1
        return failed

    async def close(self) -> None:
        """Release the backend (blocking joins run off-loop).

        Uses ``terminate()`` rather than ``close()``: a worker that hard-
        crashed mid-call leaves its ``apply_async`` entry in the pool's
        result cache forever, and ``close()+join()`` spins on that cache
        never emptying.  The engine has already drained every awaited
        request by the time it closes the pool, so nothing of value is
        lost.
        """
        loop = asyncio.get_running_loop()
        if self._pool is not None:
            pool = self._pool
            self._pool = None
            pool.terminate()
            await loop.run_in_executor(None, pool.join)
            self._release_trees()
        if self._executor is not None:
            executor = self._executor
            self._executor = None
            await loop.run_in_executor(None, partial(executor.shutdown, True))

    # -- health (what the supervisor polls) -----------------------------------
    def worker_pids(self) -> frozenset[int]:
        """PIDs of the currently live forked workers (empty in thread mode)."""
        pool = self._pool
        if pool is None:
            return frozenset()
        try:
            return frozenset(
                p.pid for p in pool._pool if p.pid is not None and p.is_alive()
            )
        except (AttributeError, OSError):  # pool mid-teardown
            return frozenset()

    def expire_overdue(self, grace_s: float = 0.0) -> int:
        """Fail every in-flight call whose deadline has passed.

        The belt to :meth:`run`'s ``timeout_s`` braces: normally the
        awaiter's own ``wait_for`` fires first, but a caller that
        dispatched without a timeout still gets its future resolved here
        when the supervisor sweeps.  Returns the number of calls failed.
        """
        now = time.monotonic()
        expired = 0
        for entry in list(self._inflight.values()):
            if (
                entry.deadline_at is not None
                and now > entry.deadline_at + grace_s
                and not entry.future.done()
            ):
                entry.future.set_exception(
                    WorkerError(
                        f"call {entry.call_id} ({entry.kind}) exceeded its "
                        f"deadline (supervisor sweep)",
                        cause_type="deadline",
                        call_id=entry.call_id,
                        kind=entry.kind,
                    )
                )
                expired += 1
        return expired

    @property
    def inflight_calls(self) -> int:
        return len(self._inflight)

    # -- submission -----------------------------------------------------------
    async def run(self, kind: str, *args, timeout_s: Optional[float] = None):
        """Run one supervised execution; awaitable from the event loop.

        Raises :class:`WorkerError` on any failure (worker exception,
        crash, deadline) — the future always resolves.  ``timeout_s``
        bounds this single attempt; retrying is the caller's policy.
        """
        if kind not in _EXEC_FNS:
            raise KeyError(f"unknown execution kind {kind!r}")
        if timeout_s is None and self._pool is not None:
            # Fork-mode calls always carry a deadline: a hard-crashed
            # worker never fires the apply_async callback, and without
            # a deadline neither the timer below nor the supervisor's
            # expire_overdue sweep could ever resolve the future.
            timeout_s = self.default_timeout_s
        loop = asyncio.get_running_loop()
        call_id = self._call_seq
        self._call_seq += 1
        directive = (
            self.injector.worker_directive(call_id)
            if self.injector is not None
            else None
        )
        future: asyncio.Future = loop.create_future()
        deadline_at = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        entry = _InflightCall(
            call_id, kind, future, deadline_at, directive is not None
        )
        self._inflight[call_id] = entry
        timer = None
        if timeout_s is not None:
            # A plain timer failing the future is much cheaper per call
            # than asyncio.wait_for (no wrapper coroutine, no cancellation
            # plumbing) — and this is the hot path of every request.
            def _expire() -> None:
                if not future.done():
                    future.set_exception(
                        WorkerError(
                            f"call {call_id} ({kind}) exceeded its "
                            f"{timeout_s}s deadline (crashed or hung worker)",
                            cause_type="deadline",
                            call_id=call_id,
                            kind=kind,
                        )
                    )

            timer = loop.call_later(timeout_s, _expire)
        try:
            self._dispatch(loop, kind, directive, args, call_id, future)
            value = await future
            if entry.faulted and self.tracer.enabled:
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
            if self.tracer.enabled:
                self.tracer.emit(EventKind.SUP_CALL_ABANDONED, call=call_id)
            raise
        finally:
            if timer is not None:
                timer.cancel()
            self._inflight.pop(call_id, None)

    def _dispatch(self, loop, kind, directive, args, call_id, future) -> None:
        if self._pool is not None:

            def _resolve(value, fut=future):
                loop.call_soon_threadsafe(_set_result, fut, value)

            def _fail(exc, fut=future, cid=call_id, knd=kind):
                # Always a typed WorkerError: whatever the worker raised
                # (or failed to pickle back) resolves the caller's future.
                if not isinstance(exc, WorkerError):
                    exc = WorkerError(
                        f"worker call {cid} ({knd}) failed: "
                        f"{type(exc).__name__}: {exc}",
                        cause_type=type(exc).__name__,
                        call_id=cid,
                        kind=knd,
                    )
                loop.call_soon_threadsafe(_set_exception, fut, exc)

            self._pool.apply_async(
                _fork_call,
                (kind, directive, tuple(args)),
                callback=_resolve,
                error_callback=_fail,
            )
            return
        if self._executor is None:
            raise RuntimeError("worker pool is not started")

        def _thread_fn(trees=self.trees, cid=call_id, knd=kind):
            try:
                return _inline_call(trees, knd, directive, args)
            except WorkerError:
                raise
            except BaseException as exc:
                raise WorkerError(
                    f"worker call {cid} ({knd}) failed: "
                    f"{type(exc).__name__}: {exc}",
                    cause_type=type(exc).__name__,
                    call_id=cid,
                    kind=knd,
                ) from exc

        thread_future = loop.run_in_executor(self._executor, _thread_fn)
        thread_future.add_done_callback(
            lambda tf, fut=future: _settle_from(tf, fut)
        )

    # -- convenience ----------------------------------------------------------
    async def windows(
        self, name: str, rects: Sequence[tuple],
        timeout_s: Optional[float] = None,
    ) -> list[tuple]:
        return await self.run("windows", name, list(rects), timeout_s=timeout_s)

    async def knn(
        self, name: str, x: float, y: float, k: int,
        timeout_s: Optional[float] = None,
    ) -> tuple:
        return await self.run("knn", name, x, y, k, timeout_s=timeout_s)

    async def join(
        self, name_r: str, name_s: str, window: Optional[tuple],
        timeout_s: Optional[float] = None,
    ) -> tuple:
        return await self.run(
            "join", name_r, name_s, window, timeout_s=timeout_s
        )

    def __repr__(self) -> str:
        mode = (
            f"fork:{self.requested_processes}" if self.forked else "threads"
        )
        return (
            f"<WorkerPool {mode} trees={sorted(self.trees)} "
            f"inflight={len(self._inflight)} restarts={self.restarts}>"
        )


def _set_result(fut: asyncio.Future, value) -> None:
    if not fut.done():
        fut.set_result(value)


def _set_exception(fut: asyncio.Future, exc) -> None:
    if not fut.done():
        fut.set_exception(exc)


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
