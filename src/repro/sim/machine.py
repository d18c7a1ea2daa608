"""The shared-virtual-memory machine model (the paper's KSR1, Table 2).

The KSR1 the authors used had 24 processors with 32 MB of main memory each,
a 32 MB/s interconnect and a three-level memory hierarchy (processor cache,
own main memory, main memory of other processors).  Table 2 of the paper
lists size, transfer unit, bandwidth and latency per level; the quotient of
the per-unit access times is the "factor of about 10" the paper quotes for
local vs. remote buffer accesses (section 3.2).

:class:`MachineConfig` reproduces Table 2 verbatim as the default values and
derives the durations the simulation charges:

* ``local_page_access_time``  — copying one 4 KB page within a processor's
  own memory (LRU-buffer hit),
* ``remote_page_access_time`` — copying one 4 KB page from another
  processor's memory through the SVM (global-buffer hit),
* ``bus_transfer_time``       — how long a remote copy occupies the shared
  interconnect (this is what creates bus contention).

:class:`Machine` instantiates the shared pieces for one simulation run:
the interconnect as a FCFS resource and the metrics bag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .engine import Environment
from .metrics import Metrics
from .resources import Resource

__all__ = ["MemoryLevel", "MachineConfig", "Machine", "KSR1_CONFIG"]

MB = 1024 * 1024


@dataclass(frozen=True)
class MemoryLevel:
    """One row of Table 2."""

    name: str
    size_bytes: int
    transfer_unit_bytes: int
    bandwidth_mb_per_s: float
    latency_us: float

    def page_copy_time(self, page_size: int) -> float:
        """Seconds to copy ``page_size`` bytes unit-by-unit from this level."""
        units = math.ceil(page_size / self.transfer_unit_bytes)
        per_unit = self.latency_us * 1e-6 + (
            self.transfer_unit_bytes / (self.bandwidth_mb_per_s * MB)
        )
        return units * per_unit


@dataclass(frozen=True)
class MachineConfig:
    """All tunable durations of the simulated SVM machine (seconds)."""

    processors: int = 24
    page_size: int = 4096

    # Table 2 of the paper.
    cache: MemoryLevel = field(
        default=MemoryLevel("cache", 256 * 1024, 64, 64.0, 0.1)
    )
    main_memory: MemoryLevel = field(
        default=MemoryLevel("main memory", 32 * MB, 128, 40.0, 1.2)
    )
    remote_memory: MemoryLevel = field(
        default=MemoryLevel("main memory of other processors", 768 * MB, 128, 32.0, 9.0)
    )

    #: CPU time per rectangle intersection test in the plane sweep.  The
    #: KSR1's custom 20 MHz processors spend on the order of a hundred
    #: cycles per test.
    cpu_rect_test_time: float = 5e-6
    #: Critical-section length for one global-buffer directory update or
    #: one shared-task-queue operation (synchronisation cost, section 3).
    sync_time: float = 5e-5
    #: Algorithmic overhead per task reassignment; the paper reports "at
    #: most 100 msec" summed over a whole join, so one reassignment is
    #: about a millisecond.
    reassign_overhead: float = 1e-3

    # -- derived durations (computed once per config: read per page) --------
    @cached_property
    def local_page_access_time(self) -> float:
        """Serving one page from the processor's own buffer."""
        return self.main_memory.page_copy_time(self.page_size)

    @cached_property
    def remote_page_access_time(self) -> float:
        """Serving one page out of another processor's buffer via the SVM."""
        return self.remote_memory.page_copy_time(self.page_size)

    @cached_property
    def bus_transfer_time(self) -> float:
        """How long a remote page copy occupies the interconnect."""
        return self.page_size / (self.remote_memory.bandwidth_mb_per_s * MB)


#: The configuration of the paper's test environment.
KSR1_CONFIG = MachineConfig()


class Machine:
    """Shared infrastructure of one simulation run.

    Owns the environment, the interconnect (a FCFS resource — concurrent
    remote page copies queue up, which is exactly the bus contention the
    paper worries about in section 3.2) and the metrics bag.
    """

    def __init__(
        self,
        env: Environment,
        config: MachineConfig | None = None,
        metrics: Metrics | None = None,
    ):
        self.env = env
        self.config = config or KSR1_CONFIG
        self.metrics = metrics or Metrics()
        self.bus = Resource(env, capacity=1, name="bus")

    def remote_copy(self):
        """Process fragment: move one page across the interconnect.

        The requester experiences the full remote access time; the bus is
        held only for the raw transfer duration.
        """
        yield self.bus.acquire()
        try:
            yield self.env.timeout(self.config.bus_transfer_time)
        finally:
            self.bus.release()
        # Latency/protocol share of the remote access that does not occupy
        # the bus for other parties.
        residue = self.config.remote_page_access_time - self.config.bus_transfer_time
        if residue > 0:
            yield self.env.timeout(residue)
        self.metrics.add("bus_transfers")
