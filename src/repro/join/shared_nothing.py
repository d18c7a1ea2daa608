"""Shared-nothing parallel spatial join (the paper's future work, section 5).

The paper closes with: "In our future work, we are particularly interested
in a distributed spatial join processing using a shared-nothing
architecture ... In contrast to the SVM-model, in a shared-nothing
architecture the assignment of the data to the different disks is of
special interest."  This module builds that system:

* every processor owns a **private disk** and a **private buffer**; there
  is no shared memory and no global buffer directory;
* pages are **declustered** over the owners — either *round-robin* (page
  number modulo n, the paper's spatially-blind placement) or *spatial*
  (contiguous runs of the spatially ordered pages per tree, so each
  processor owns a region of the map);
* a processor missing a page it does not own sends a **message** to the
  owner, whose disk/buffer services it; the reply ships the page over a
  shared interconnect (latency + bandwidth model, ATM-class defaults);
  remote pages are **cached locally** — replication instead of the SVM's
  at-most-once invariant;
* tasks are assigned statically (range or round-robin) or dynamically
  through a **coordinator** at processor 0, each fetch paying a message
  round trip; there is no task reassignment.

The cluster is a page-access policy of the one join simulator
(:class:`repro.join.parallel._JoinRun`): task creation, assignment, the
processors' depth-first loop and the [BKS 93] node-pair step are the SVM
join's, only page reads and queue fetches cost what they cost here.

The interesting trade-off — measurable with the bench — is placement ×
assignment: spatial placement with the range assignment keeps accesses
local but concentrates load; round-robin placement spreads disk load but
turns most accesses into network traffic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Generator, Optional

from ..buffer.lru import LRUBuffer
from ..buffer.path_buffer import PathBuffer
from ..rtree.pagestore import PageStore
from ..rtree.rstar import RStarTree
from ..sim.machine import KSR1_CONFIG
from ..sim.resources import Resource
from ..storage.disk import DEFAULT_DISK
from ..storage.page import PageKind
from .assignment import AssignmentMode, BufferMode, JoinVariant
from .parallel import ParallelJoinConfig, _JoinRun
from .reassign import ReassignLevel, ReassignmentPolicy
from .result import ParallelJoinResult

__all__ = [
    "Placement",
    "NetworkParams",
    "SharedNothingConfig",
    "shared_nothing_join",
]


class Placement(enum.Enum):
    """How pages are declustered over the node-private disks."""

    ROUND_ROBIN = "round-robin"
    SPATIAL = "spatial"


@dataclass(frozen=True)
class NetworkParams:
    """Message-passing interconnect (workstation-cluster / ATM class)."""

    #: One-way message latency in seconds.
    latency: float = 0.5e-3
    #: Payload bandwidth in MB/s (ATM-622 style default).
    bandwidth_mb_per_s: float = 16.0
    page_size: int = 4096

    @property
    def page_transfer_time(self) -> float:
        return self.page_size / (self.bandwidth_mb_per_s * 1024 * 1024)

    @property
    def request_round_trip(self) -> float:
        """Request message out, reply with page back."""
        return 2 * self.latency + self.page_transfer_time

    @property
    def control_round_trip(self) -> float:
        """Request/notification without a page payload (task fetches)."""
        return 2 * self.latency


#: The cluster's interconnect.
NETWORK = NetworkParams()


@dataclass(frozen=True)
class SharedNothingConfig:
    """One shared-nothing experiment run."""

    processors: int = 8
    #: Private buffer pages per processor.
    buffer_pages_per_processor: int = 100
    placement: Placement = Placement.SPATIAL
    assignment: AssignmentMode = AssignmentMode.STATIC_RANGE


def shared_nothing_join(
    tree_r: RStarTree,
    tree_s: RStarTree,
    config: SharedNothingConfig,
    page_store: Optional[PageStore] = None,
) -> ParallelJoinResult:
    """Run the spatial join on the shared-nothing cluster model."""
    svm_config = ParallelJoinConfig(
        processors=config.processors,
        variant=JoinVariant(BufferMode.LOCAL, config.assignment),
        reassignment=ReassignmentPolicy(level=ReassignLevel.NONE),
    )
    cluster = partial(_Cluster, config, tree_r, tree_s)
    return _JoinRun(tree_r, tree_s, svm_config, page_store, cluster).execute()


class _Cluster:
    """Page access on the cluster: path buffers, own LRU, then the own
    disk or the owner's node; a queue fetch off processor 0 is a control
    round trip to the coordinator."""

    def __init__(self, config: SharedNothingConfig, tree_r, tree_s, run: _JoinRun):
        self.config = config
        self.env = run.env
        self.metrics = run.metrics
        self.store = run.store
        n = config.processors

        # One private disk per node; one shared interconnect.
        self.disks = [Resource(self.env, 1, name=f"disk@{p}") for p in range(n)]
        self.network = Resource(self.env, 1, name="interconnect")

        # Private buffers.
        heights = self.store.tree_heights()
        self.lru = [LRUBuffer(max(1, config.buffer_pages_per_processor)) for _ in range(n)]
        self.paths = [
            {tree_id: PathBuffer(height) for tree_id, height in heights.items()}
            for _ in range(n)
        ]

        # Data placement.
        self.owner = self._place_pages(tree_r, tree_s, n)

    def _place_pages(self, tree_r, tree_s, n: int) -> dict[int, int]:
        """page id → owning node, per the configured placement."""
        owner: dict[int, int] = {}
        if self.config.placement is Placement.ROUND_ROBIN:
            for page in self.store.pages():
                owner[page] = page % n
            return owner
        # Spatial: contiguous runs of each tree's (spatially ordered) pages.
        for tree in (tree_r, tree_s):
            pages = [node.page_id for node in tree.nodes()]
            total = len(pages)
            for index, page in enumerate(pages):
                owner[page] = min(n - 1, index * n // total)
        return owner

    # --------------------------------------------------------------- access
    def access(self, p: int, tree_id: int, node) -> Generator:
        """Obtain one page: path buffer, own LRU, owner's node, own disk."""
        page_id = node.page_id
        path_buffer = self.paths[p][tree_id]
        if path_buffer.contains(page_id):
            self.metrics.add("path_hits")
            return
        level = self.store.depth(tree_id, node)
        if self.lru[p].touch(page_id):
            self.metrics.add("lru_hits")
            yield self.env.timeout(KSR1_CONFIG.local_page_access_time)
            path_buffer.record(level, page_id)
            return
        owner = self.owner[page_id]
        kind = self.store.kind(page_id)
        if owner == p:
            yield from self._read_own_disk(p, page_id, kind)
        else:
            yield from self._fetch_remote(p, owner, page_id, kind)
        self.lru[p].insert(page_id)
        path_buffer.record(level, page_id)

    def _read_own_disk(self, p: int, page_id: int, kind: PageKind) -> Generator:
        disk = self.disks[p]
        yield disk.acquire()
        try:
            yield self.env.timeout(DEFAULT_DISK.service_time(kind))
        finally:
            disk.release()
        self.metrics.record_disk_read(p)

    def _fetch_remote(self, p: int, owner: int, page_id: int, kind: PageKind) -> Generator:
        """Message to *owner*; owner serves from its buffer or its disk."""
        network = self.network
        # Request message.
        yield network.acquire()
        try:
            yield self.env.timeout(NETWORK.latency)
        finally:
            network.release()
        # Owner side: buffer hit or disk read at the owner's disk.
        if self.lru[owner].touch(page_id):
            self.metrics.add("owner_buffer_hits")
            yield self.env.timeout(KSR1_CONFIG.local_page_access_time)
        else:
            yield from self._read_own_disk(owner, page_id, kind)
            self.lru[owner].insert(page_id)
        # Reply carrying the page.
        yield network.acquire()
        try:
            yield self.env.timeout(NETWORK.latency + NETWORK.page_transfer_time)
        finally:
            network.release()
        self.metrics.add("remote_fetches")

    def fetch(self, p: int) -> Generator:
        """Ask the coordinator (processor 0) for the next task."""
        if p != 0:
            yield self.env.timeout(NETWORK.control_round_trip)
