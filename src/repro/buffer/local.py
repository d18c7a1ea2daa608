"""Per-processor buffer management: path buffer -> LRU -> (SVM) -> disk.

One :class:`ProcessorBufferManager` exists per simulated processor.  Every
page access of the join algorithm walks the paper's cost hierarchy:

1. the R*-tree **path buffers** (one per tree) — free, purely local;
2. the processor's **local LRU buffer** — a local-memory page copy;
3. with the global buffer of section 3.2: the **SVM directory** — if some
   other processor holds the page, copy it over the interconnect instead of
   touching the disk (the page is *not* duplicated into the local buffer,
   preserving the at-most-once invariant);
4. the **disk array** — 16 ms (directory page) or 37.5 ms (data page plus
   exact-geometry cluster), queued FCFS per disk.

Pages loaded from disk are inserted into the local LRU buffer and, in
global-buffer mode, registered in the directory; evicted pages are
deregistered.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..sim.machine import Machine
from ..storage.diskarray import DiskArray
from ..storage.page import PageKind
from ..trace import NULL_TRACER, EventKind, Tracer
from .base import AccessSource
from .global_buffer import GlobalDirectory
from .lru import LRUBuffer
from .path_buffer import PathBuffer

__all__ = ["ProcessorBufferManager"]


class ProcessorBufferManager:
    """The buffer stack of one simulated processor.

    Parameters
    ----------
    proc_id:
        Identifier of the owning processor (0-based).
    machine:
        Shared machine model (timing constants, interconnect, metrics).
    disk_array:
        The shared simulated disk array.
    lru_capacity:
        Local LRU size in pages; the paper divides the total buffer space
        evenly, so this is ``total_pages // n``.
    tree_heights:
        Height of each R*-tree participating in the join, keyed by tree id;
        a path buffer of that height is kept per tree.
    directory:
        The shared :class:`GlobalDirectory` for the global-buffer variants
        (``gsrr``, ``gd``), or None for purely local buffers (``lsr``).
    """

    def __init__(
        self,
        proc_id: int,
        machine: Machine,
        disk_array: DiskArray,
        lru_capacity: int,
        tree_heights: dict[int, int],
        directory: Optional[GlobalDirectory] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.proc_id = proc_id
        self.machine = machine
        self.env = machine.env
        self.disk_array = disk_array
        self.lru = LRUBuffer(lru_capacity)
        self.path_buffers = {
            tree_id: PathBuffer(height) for tree_id, height in tree_heights.items()
        }
        self.directory = directory
        self.tracer = tracer

    def access(
        self, tree_id: int, level: int, page_id: int, kind: PageKind
    ) -> Generator:
        """Process fragment: obtain one page; returns its :class:`AccessSource`.

        ``level`` is the page's depth in its tree (0 = root); it keeps the
        path buffer current so the nodes of the active path stay free to
        re-access during the depth-first traversal.
        """
        metrics = self.machine.metrics
        tracer = self.tracer
        path_buffer = self.path_buffers[tree_id]

        if path_buffer.contains(page_id):
            metrics.add("path_hits")
            if tracer.enabled:
                tracer.emit(
                    EventKind.BUFFER_HIT,
                    proc=self.proc_id,
                    page=page_id,
                    source="path",
                )
            return AccessSource.PATH

        if self.lru.touch(page_id):
            metrics.add("lru_hits")
            if tracer.enabled:
                tracer.emit(
                    EventKind.BUFFER_HIT,
                    proc=self.proc_id,
                    page=page_id,
                    source="lru",
                )
            yield self.env.timeout(self.machine.config.local_page_access_time)
            path_buffer.record(level, page_id)
            return AccessSource.LRU

        if self.directory is not None:
            while True:
                outcome, payload = yield from self.directory.begin_access(
                    page_id, self.proc_id
                )
                if outcome == "owner":
                    if tracer.enabled:
                        tracer.emit(
                            EventKind.REMOTE_FETCH,
                            proc=self.proc_id,
                            page=page_id,
                            owner=payload,
                        )
                    yield from self.machine.remote_copy()
                    metrics.add("remote_hits")
                    path_buffer.record(level, page_id)
                    return AccessSource.REMOTE
                if outcome == "wait":
                    # Another processor is reading this page from disk;
                    # piggyback on its load instead of duplicating it.
                    yield payload
                    metrics.add("load_waits")
                    continue
                break  # we claimed the load

        yield from self.disk_array.read(page_id, kind, proc=self.proc_id)
        evicted = self.lru.insert(page_id)
        if tracer.enabled:
            tracer.emit(EventKind.BUFFER_INSERT, proc=self.proc_id, page=page_id)
            if evicted is not None:
                tracer.emit(
                    EventKind.BUFFER_EVICT, proc=self.proc_id, page=evicted
                )
        if self.directory is not None:
            if evicted is not None:
                yield from self.directory.deregister(evicted, self.proc_id)
            yield from self.directory.finish_load(page_id, self.proc_id)
        path_buffer.record(level, page_id)
        return AccessSource.DISK

    def reset_paths(self) -> None:
        """Forget the current paths (a new task starts from the roots)."""
        for path_buffer in self.path_buffers.values():
            path_buffer.clear()

    def __repr__(self) -> str:
        mode = "global" if self.directory is not None else "local"
        return (
            f"<ProcessorBufferManager p{self.proc_id} {mode} "
            f"lru={len(self.lru)}/{self.lru.capacity}>"
        )
