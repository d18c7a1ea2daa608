"""The simulated disk array of section 4.2.

Pages are assigned to disks "by using the page number and a modulo
function, i.e. spatial aspects have no impact on the selection of the disk"
— a round-robin declustering.  Each disk serves one request at a time,
FCFS; concurrent requests from different processors queue up, which is the
disk synchronisation cost the paper's speed-up analysis names (section 4.5)
and the reason one disk saturates at about four processors (Figure 9).
"""

from __future__ import annotations

from typing import Generator

from ..sim.engine import Environment
from ..sim.metrics import Metrics
from ..sim.resources import Resource
from ..trace import NULL_TRACER, EventKind, Tracer
from .disk import DEFAULT_DISK, DiskParams
from .page import PageKind

__all__ = ["DiskArray"]


class DiskArray:
    """``num_disks`` independent simulated disks with modulo placement."""

    def __init__(
        self,
        env: Environment,
        num_disks: int,
        params: DiskParams | None = None,
        metrics: Metrics | None = None,
        tracer: Tracer = NULL_TRACER,
    ):
        if num_disks < 1:
            raise ValueError("a disk array needs at least one disk")
        self.env = env
        self.num_disks = num_disks
        self.params = params or DEFAULT_DISK
        self.metrics = metrics or Metrics()
        self.tracer = tracer
        self._disks = [
            Resource(env, capacity=1, name=f"disk{d}") for d in range(num_disks)
        ]

    def disk_of(self, page_id: int) -> int:
        """Placement function: page number modulo the number of disks."""
        return page_id % self.num_disks

    def read(self, page_id: int, kind: PageKind, proc: int = -1) -> Generator:
        """Process fragment: one page read, including queueing at the disk.

        A :data:`PageKind.DATA` read includes the exact-geometry cluster
        access (37.5 ms total with the default parameters); a directory
        read costs the plain 16 ms.  ``proc`` attributes the request to a
        processor on the trace (purely observability).
        """
        disk_id = self.disk_of(page_id)
        disk = self._disks[disk_id]
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                EventKind.DISK_ENQUEUE, proc=proc, page=page_id, disk=disk_id
            )
        yield disk.acquire()
        service_start = self.env.now
        try:
            yield self.env.timeout(self.params.service_time(kind))
        finally:
            disk.release()
        self.metrics.record_disk_read(disk_id)
        if tracer.enabled:
            tracer.emit(
                EventKind.DISK_COMPLETE,
                proc=proc,
                page=page_id,
                disk=disk_id,
                start=service_start,
            )

    def __repr__(self) -> str:
        return f"<DiskArray {self.num_disks} disks, {self.metrics.disk_accesses} reads>"
