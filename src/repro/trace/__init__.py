"""Structured simulation tracing and invariant checking.

The simulated KSR1 (:mod:`repro.sim`), the parallel join driver, the
buffer layers and the disk array emit typed :class:`TraceEvent` objects
into a :class:`Tracer`.  Sinks consume the stream: recording
(:class:`ListSink`), JSONL persistence (:class:`JSONLSink`) and the online
invariant checkers (:mod:`repro.trace.checkers`, plus the spec monitors
of :mod:`repro.analysis.protocol`) that verify the simulation behaved
lawfully — every pair run once, steals sound, buffers coherent, disks
exact, clocks monotone.

Tracing is **off by default** and adds only an ``if tracer.enabled`` guard
per site (the :data:`NULL_TRACER`); enable it per run via
``ParallelJoinConfig(trace=TraceConfig())`` and read the outcome from
``result.trace`` (a :class:`TraceHandle`).
"""

from .checkers import (
    BufferCoherenceChecker,
    ClockMonotonicityChecker,
    DiskAccountingChecker,
    InvariantChecker,
    InvariantViolation,
    RecoveryAccountingChecker,
    ShardAccountingChecker,
    StealSoundnessChecker,
    Verdict,
    default_checkers,
    run_checkers,
    service_checkers,
)
from .events import EventKind, TraceEvent
from .handle import TraceHandle
from .sinks import JSONLSink, ListSink, TraceSink, read_jsonl
from .timeline import format_event, render_timeline, steal_timeline
from .tracer import NULL_TRACER, NullTracer, TraceConfig, Tracer

__all__ = [
    "EventKind",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceConfig",
    "TraceSink",
    "ListSink",
    "JSONLSink",
    "read_jsonl",
    "TraceHandle",
    "Verdict",
    "InvariantChecker",
    "InvariantViolation",
    "StealSoundnessChecker",
    "BufferCoherenceChecker",
    "DiskAccountingChecker",
    "ClockMonotonicityChecker",
    "RecoveryAccountingChecker",
    "ShardAccountingChecker",
    "default_checkers",
    "service_checkers",
    "run_checkers",
    "render_timeline",
    "steal_timeline",
    "format_event",
]
