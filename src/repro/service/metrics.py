"""Service metrics, computed from the engine's own trace stream.

The engine does not update counters directly: it emits ``SVC_*`` events
into a live :class:`~repro.trace.tracer.Tracer` (clocked on wall time) and
:class:`ServiceMetrics` is simply one more sink on that bus — exactly the
shape of the PR-1 simulation tracing, so JSONL persistence, timeline
rendering and the invariant checkers all work on serving traces unchanged.

Per request class the sink keeps a latency reservoir (p50/p95/p99), the
terminal-outcome counters and a queue-depth high-water mark; batch sizes
get their own distribution.  ``report()`` renders everything as one
JSON-able dict — the ``"metrics"`` block of every tier's ``snapshot()``.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, List, Optional, Sequence

from ..trace import EventKind, TraceEvent

__all__ = ["LatencyReservoir", "ServiceMetrics", "percentile"]


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation.

    ``nan`` for an empty sample set — serialised as ``null`` in JSON.
    """
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


class LatencyReservoir:
    """Bounded latency sample set (uniform reservoir past the cap).  The
    samples are raw doubles: 8 B a request, not a list slot and a float."""

    def __init__(self, capacity: int = 65536, seed: int = 1):
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._samples = array("d")
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        if len(self._samples) < self.capacity:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self._samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantiles(self) -> dict:
        return {
            "count": self.count,
            "mean_s": self.mean,
            "p50_s": percentile(self._samples, 50),
            "p95_s": percentile(self._samples, 95),
            "p99_s": percentile(self._samples, 99),
            "max_s": self.max if self.count else float("nan"),
        }


class _ClassStats:
    __slots__ = (
        "submitted",
        "admitted",
        "rejected",
        "completed",
        "timeouts",
        "cancelled",
        "errors",
        "cache_hits",
        "retries",
        "giveups",
        "latency",
    )

    def __init__(self) -> None:
        self.submitted = 0
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.timeouts = 0
        self.cancelled = 0
        self.errors = 0
        self.cache_hits = 0
        self.retries = 0
        self.giveups = 0
        self.latency = LatencyReservoir()

    def as_dict(self) -> dict:
        payload = {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "timeouts": self.timeouts,
            "cancelled": self.cancelled,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "retries": self.retries,
            "giveups": self.giveups,
        }
        payload.update(self.latency.quantiles())
        return payload


class ServiceMetrics:
    """Trace sink aggregating the serving engine's event stream."""

    def __init__(self) -> None:
        self.per_class: Dict[str, _ClassStats] = {}
        self.overall = LatencyReservoir()
        self.batch_sizes: List[int] = []
        self.queue_depth_max = 0
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        self.events_seen = 0

    def _cls(self, event: TraceEvent) -> _ClassStats:
        name = str(event.data.get("cls", "?"))
        stats = self.per_class.get(name)
        if stats is None:
            stats = self.per_class[name] = _ClassStats()
        return stats

    # -- sink protocol --------------------------------------------------------
    def handle(self, event: TraceEvent) -> None:
        self.events_seen += 1
        kind = event.kind
        if kind == EventKind.SVC_REQUEST_SUBMITTED:
            self._cls(event).submitted += 1
        elif kind == EventKind.SVC_REQUEST_ADMITTED:
            self._cls(event).admitted += 1
            depth = int(event.data.get("inflight", 0))
            if depth > self.queue_depth_max:
                self.queue_depth_max = depth
        elif kind == EventKind.SVC_REQUEST_REJECTED:
            self._cls(event).rejected += 1
        elif kind == EventKind.SVC_REQUEST_COMPLETED:
            stats = self._cls(event)
            stats.completed += 1
            latency = float(event.data.get("latency_s", 0.0))
            stats.latency.add(latency)
            self.overall.add(latency)
            if event.data.get("cached"):
                stats.cache_hits += 1
        elif kind == EventKind.SVC_REQUEST_TIMEOUT:
            self._cls(event).timeouts += 1
        elif kind == EventKind.SVC_REQUEST_CANCELLED:
            self._cls(event).cancelled += 1
        elif kind == EventKind.SVC_REQUEST_ERROR:
            self._cls(event).errors += 1
        elif kind == EventKind.SUP_CALL_RETRY:
            self._cls(event).retries += 1
        elif kind == EventKind.SUP_CALL_GIVEUP:
            self._cls(event).giveups += 1
        elif kind == EventKind.SVC_BATCH_EXECUTED:
            self.batch_sizes.append(int(event.data.get("size", 0)))
        elif kind == EventKind.SVC_ENGINE_START:
            self.started_at = event.time
        elif kind == EventKind.SVC_ENGINE_STOP:
            self.stopped_at = event.time

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass

    # -- aggregates -----------------------------------------------------------
    @property
    def completed(self) -> int:
        return sum(s.completed for s in self.per_class.values())

    @property
    def rejected(self) -> int:
        return sum(s.rejected for s in self.per_class.values())

    @property
    def timeouts(self) -> int:
        return sum(s.timeouts for s in self.per_class.values())

    @property
    def retries(self) -> int:
        return sum(s.retries for s in self.per_class.values())

    def throughput(self, duration_s: Optional[float] = None) -> float:
        """Completed requests per second over *duration_s* (or the
        engine's observed start→stop span)."""
        if duration_s is None:
            if self.started_at is None or self.stopped_at is None:
                return float("nan")
            duration_s = self.stopped_at - self.started_at
        return self.completed / duration_s if duration_s > 0 else float("nan")

    def batch_size_distribution(self) -> dict:
        sizes = self.batch_sizes
        return {
            "batches": len(sizes),
            "requests_batched": sum(sizes),
            "mean": (sum(sizes) / len(sizes)) if sizes else float("nan"),
            "max": max(sizes) if sizes else 0,
            "p95": percentile([float(s) for s in sizes], 95),
        }

    def report(self, duration_s: Optional[float] = None) -> dict:
        return {
            "per_class": {
                name: stats.as_dict() for name, stats in self.per_class.items()
            },
            "latency": self.overall.quantiles(),
            "completed": self.completed,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            # No tier sheds; read by perf's service.engine.shed probe.
            "shed": 0,
            "retries": self.retries,
            "throughput_rps": self.throughput(duration_s),
            "queue_depth_max": self.queue_depth_max,
            "batch_sizes": self.batch_size_distribution(),
        }

    def __repr__(self) -> str:
        return (
            f"<ServiceMetrics {self.events_seen} events, "
            f"{self.completed} completed, {self.rejected} rejected>"
        )
