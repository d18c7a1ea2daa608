"""Typed simulation events.

Every observable step of a simulated parallel join — task life cycle,
steals, buffer traffic, disk service — is one :class:`TraceEvent`: a
monotone sequence number, the simulated time it happened, the event kind,
the processor it happened on (-1 for machine-global events) and a small
payload dict of ints/floats/strings.  Events are cheap plain data; all
interpretation lives in the checkers (:mod:`repro.trace.checkers`) and the
timeline renderer (:mod:`repro.trace.timeline`).

Pairs of subtree nodes are identified by the page ids of their two nodes
(``r``/``s`` payload keys).  A pair is created exactly once during a join
(each node has a unique parent, so a child pair has a unique producing
parent pair), which is what makes the page-id pair a sound conservation
key.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["EventKind", "TraceEvent"]


class EventKind(str, enum.Enum):
    """All event types the instrumented simulator emits."""

    # run framing
    RUN_START = "run_start"
    RUN_END = "run_end"

    # task life cycle (phase 1/2)
    TASK_CREATED = "task_created"

    # per-pair work accounting (phase 3)
    PAIR_ENQUEUED = "pair_enqueued"
    PAIR_DEQUEUED = "pair_dequeued"
    EXEC_START = "exec_start"
    EXEC_END = "exec_end"

    # task reassignment (section 3.4)
    STEAL_REQUESTED = "steal_requested"
    STEAL_TAKE = "steal_take"
    STEAL_GRANTED = "steal_granted"
    STEAL_DENIED = "steal_denied"
    BUDDY_FORMED = "buddy_formed"

    # buffer hierarchy (section 3.2 / 4.2)
    BUFFER_HIT = "buffer_hit"
    BUFFER_INSERT = "buffer_insert"
    BUFFER_EVICT = "buffer_evict"
    REMOTE_FETCH = "remote_fetch"
    PAGE_REGISTERED = "page_registered"
    PAGE_DEREGISTERED = "page_deregistered"

    # disk array (section 4.2)
    DISK_ENQUEUE = "disk_enqueue"
    DISK_COMPLETE = "disk_complete"

    # serving engine (repro.service) — wall-clock events, proc is always -1
    SVC_ENGINE_START = "svc_engine_start"
    SVC_ENGINE_STOP = "svc_engine_stop"
    SVC_REQUEST_SUBMITTED = "svc_request_submitted"
    SVC_REQUEST_ADMITTED = "svc_request_admitted"
    SVC_REQUEST_REJECTED = "svc_request_rejected"
    SVC_REQUEST_COMPLETED = "svc_request_completed"
    SVC_REQUEST_TIMEOUT = "svc_request_timeout"
    SVC_REQUEST_CANCELLED = "svc_request_cancelled"
    SVC_REQUEST_ERROR = "svc_request_error"
    SVC_BATCH_EXECUTED = "svc_batch_executed"
    SVC_CACHE_HIT = "svc_cache_hit"
    SVC_CACHE_MISS = "svc_cache_miss"
    SVC_CACHE_INSERT = "svc_cache_insert"
    SVC_CACHE_EVICT = "svc_cache_evict"
    SVC_CACHE_EXPIRE = "svc_cache_expire"

    # sharded serving tier (repro.shard) — routing / fan-out ledger
    #: One per (shard, tree) at router start: the shard's stored-content
    #: geometry, so checkers can recompute routing decisions offline.
    SHD_SHARD_UP = "shd_shard_up"
    #: A request's fan-out decision: which shards its geometry overlaps.
    SHD_REQUEST_ROUTED = "shd_request_routed"
    SHD_SUBREQUEST_SENT = "shd_subrequest_sent"
    SHD_SUBREQUEST_DONE = "shd_subrequest_done"
    #: Terminal failure of one routed sub-request (attempts exhausted or
    #: the awaiting request abandoned it).
    SHD_SUBREQUEST_FAILED = "shd_subrequest_failed"
    #: A failed attempt re-leased to the next replica of the same shard.
    SHD_FAILOVER = "shd_failover"
    #: A kNN candidate shard pruned by the best-first merge bound.
    SHD_SHARD_SKIPPED = "shd_shard_skipped"
    SHD_MERGED = "shd_merged"

    # fault injection (repro.faults) — the sabotage ledger
    FLT_INJECT_CRASH = "flt_inject_crash"
    FLT_INJECT_HANG = "flt_inject_hang"
    FLT_INJECT_SLOW_IO = "flt_inject_slow_io"

    # fault injection (the forked join's seam, repro.recovery)
    FLT_INJECT_TASK_KILL = "flt_inject_task_kill"    # processor dies at a task

    # task leases (repro.join.mp) — grants must reconcile with
    # completions + expirations; every expiry requeues its task.
    LSE_GRANTED = "lse_granted"
    LSE_RENEWED = "lse_renewed"
    LSE_EXPIRED = "lse_expired"
    LSE_COMPLETED = "lse_completed"
    LSE_REQUEUED = "lse_requeued"

    # resilience / supervision — the recovery ledger
    SUP_CALL_OK = "sup_call_ok"            # a faulted call completed anyway
    SUP_CALL_FAILED = "sup_call_failed"    # one pool call failed (typed)
    SUP_CALL_ABANDONED = "sup_call_abandoned"  # awaiter gone (timeout/cancel)
    SUP_CALL_RETRY = "sup_call_retry"      # engine re-enqueues a failed call
    SUP_CALL_GIVEUP = "sup_call_giveup"    # retries exhausted; error surfaces
    SUP_WORKER_CRASH_DETECTED = "sup_worker_crash_detected"
    SUP_WORKER_RESPAWNED = "sup_worker_respawned"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One occurrence in the simulated machine.

    ``proc`` is the 0-based processor the event belongs to, or -1 for
    events without a processor context (run framing, directory state).
    """

    seq: int
    time: float
    kind: EventKind
    proc: int = -1
    data: Mapping[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind.value,
            "proc": self.proc,
            "data": dict(self.data),
        }

    @classmethod
    def from_json_dict(cls, raw: Mapping[str, Any]) -> "TraceEvent":
        return cls(
            seq=int(raw["seq"]),
            time=float(raw["time"]),
            kind=EventKind(raw["kind"]),
            proc=int(raw.get("proc", -1)),
            data=dict(raw.get("data", {})),
        )

    def __repr__(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.data.items())
        return (
            f"<TraceEvent #{self.seq} t={self.time:.6f} {self.kind.value}"
            f" proc={self.proc}{' ' + inner if inner else ''}>"
        )
