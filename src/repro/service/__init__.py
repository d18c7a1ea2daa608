"""A concurrent spatial-query serving engine over pre-built R*-trees.

The paper closes by asking for "a larger framework for parallel spatial
query processing" (section 5); this package is that framework's serving
tier.  An asyncio :class:`Engine` accepts concurrent **window**, **kNN**
and **spatial-join** requests and executes them on a pool of forked
workers that inherit the in-memory trees (the process-level shared
virtual memory of :mod:`repro.join.mp`), with

* one **front door** (:class:`FrontDoor`, shared with the sharded tier of
  :mod:`repro.shard`): request validation, admission control — global
  in-flight bound, per-class waiting-room and concurrency limits —
  per-request timeout, graceful draining stop;
* a **micro-batcher** coalescing near-simultaneous window queries into
  one shared tree traversal (:mod:`repro.service.batcher`);
* an **LRU + TTL result cache** on canonicalised query keys
  (:mod:`repro.service.cache`);
* a **metrics layer** fed purely by ``SVC_*`` events on the
  :mod:`repro.trace` bus (:mod:`repro.service.metrics`), so the existing
  sinks, timelines and checkers apply to serving runs;
* a **load generator** — ``python -m repro.service.loadgen`` — that
  drives this engine or the sharded tier once with a closed- or
  open-loop arrival model, prints a latency/throughput report and keeps
  nothing (a run under a seeded fault plan is replayed through the
  invariant checkers and exits 1 on a red verdict);
* a **resilience layer** (:mod:`repro.service.resilience`,
  :mod:`repro.service.workers`): supervised worker calls with typed
  :class:`WorkerError` outcomes, capped-backoff retries inside the
  request's deadline budget, and a worker pool that is told of a
  worker's death as it happens, fails exactly the call that worker held
  and forks its replacement.
"""

from .batcher import MicroBatcher
from .cache import MISS, ResultCache
from .engine import Engine, EngineConfig
from .frontdoor import FrontDoor
from .metrics import LatencyReservoir, ServiceMetrics, percentile
from .resilience import RetryPolicy, WorkerError
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
from .workers import WorkerPool, fork_available

__all__ = [
    "Engine",
    "EngineConfig",
    "FrontDoor",
    "RequestClass",
    "Status",
    "WindowRequest",
    "KNNRequest",
    "JoinRequest",
    "Request",
    "Response",
    "canonical_rect",
    "ResultCache",
    "MISS",
    "MicroBatcher",
    "ServiceMetrics",
    "LatencyReservoir",
    "percentile",
    "WorkerPool",
    "fork_available",
    "RetryPolicy",
    "WorkerError",
]
