"""Resilience primitives of the serving engine: typed worker failures,
retries with capped exponential backoff, and per-class circuit breakers.

These are the paper's section-6 discipline — *work is redistributed when
a processor falls behind* — applied to faults instead of skew: a failed
worker call is retried (on whichever worker is healthy after the pool
respawn), but always inside the request's original deadline budget, and
a request class whose backend keeps failing is cut off by a circuit
breaker before it can exhaust the pool, degrading to stale cache serves
or explicit load shedding instead of cascading.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..trace import NULL_TRACER, EventKind, Tracer

__all__ = [
    "WorkerError",
    "CircuitOpenError",
    "RetryPolicy",
    "CircuitBreaker",
]


class WorkerError(RuntimeError):
    """A worker-pool call failed: crash, hang past deadline, or a raised
    exception — always typed, always picklable, so the caller's future is
    guaranteed to resolve (never a silently pending future).

    ``cause_type`` names the original exception class (or the synthetic
    reason: ``"worker-died"``, ``"deadline"``, ``"pool-closed"``);
    ``call_id`` threads the pool-call identity through to the retry layer
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


class CircuitOpenError(RuntimeError):
    """The request class's circuit is open; execution was not attempted."""

    def __init__(self, cls_name: str):
        super().__init__(f"circuit open for request class {cls_name!r}")
        self.cls_name = cls_name


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter, under a deadline budget.

    ``delay(attempt, rng)`` is the sleep before retry *attempt* (1-based);
    the base doubles per attempt (``multiplier``), is capped at
    ``max_delay_s`` and jittered by ±``jitter`` of itself so synchronized
    retry storms decorrelate.  A retry is only allowed while the delay
    plus ``min_attempt_s`` (the smallest useful execution window) still
    fits into the request's remaining deadline budget — retries never
    outlive the admission timeout.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.02
    max_delay_s: float = 0.5
    multiplier: float = 2.0
    jitter: float = 0.2
    #: Smallest execution window worth retrying into.
    min_attempt_s: float = 0.01

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError("need 0 <= base_delay_s <= max_delay_s")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int, rng) -> float:
        """Backoff before retry *attempt* (1 = first retry)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = min(
            self.max_delay_s,
            self.base_delay_s * self.multiplier ** (attempt - 1),
        )
        if self.jitter and base > 0:
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base

    def next_delay(
        self, attempt: int, rng, budget_s: Optional[float]
    ) -> Optional[float]:
        """The sleep before retry *attempt*, or None when retrying is no
        longer allowed (attempts exhausted or the deadline budget cannot
        fit the backoff plus a useful execution window)."""
        if attempt >= self.max_attempts:
            return None
        sleep_s = self.delay(attempt, rng)
        if budget_s is not None and sleep_s + self.min_attempt_s > budget_s:
            return None
        return sleep_s


class CircuitBreaker:
    """Per-request-class circuit: closed → open → half-open → closed.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` refuses execution outright (degraded modes take
    over).  After ``reset_timeout_s`` the circuit half-opens and admits
    up to ``half_open_max`` probe calls: one probe success closes it,
    one probe failure re-opens it.  Transitions are emitted as
    ``SUP_BREAKER_*`` events.

    Every half-open admission granted by :meth:`allow` consumes a probe
    slot that must be settled by exactly one of :meth:`record_success`,
    :meth:`record_failure` or :meth:`release` — callers whose attempt
    ends without an outcome (cancelled mid-flight) call :meth:`release`
    so the slot returns.  As a backstop, :meth:`allow` reclaims probe
    slots that have seen no outcome for a full ``reset_timeout_s``, so
    even a missed release cannot wedge the breaker in HALF_OPEN forever.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        cls_name: str,
        *,
        failure_threshold: int = 5,
        reset_timeout_s: float = 1.0,
        half_open_max: int = 1,
        clock: Callable[[], float] = time.monotonic,
        tracer: Tracer = NULL_TRACER,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")
        if half_open_max < 1:
            raise ValueError("half_open_max must be >= 1")
        self.cls_name = cls_name
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.half_open_max = half_open_max
        self._clock = clock
        self.tracer = tracer
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_inflight = 0
        self._probe_admitted_at = 0.0
        self.opens = 0
        self.closes = 0

    # -- gate ------------------------------------------------------------------
    def allow(self) -> bool:
        """May one execution proceed right now?

        A ``True`` in HALF_OPEN consumes a probe slot; the caller must
        settle it with record_success/record_failure, or release() when
        the attempt ends with no outcome.
        """
        if self.state == self.CLOSED:
            return True
        now = self._clock()
        if self.state == self.OPEN:
            if now - self._opened_at >= self.reset_timeout_s:
                self._transition(self.HALF_OPEN)
            else:
                return False
        # Half-open: admit a bounded number of probes.  Slots whose
        # outcome never arrived (caller torn down before release) are
        # reclaimed after a full reset window so the breaker cannot
        # stay wedged with all probes "in flight" forever.
        if (
            self._probes_inflight >= self.half_open_max
            and now - self._probe_admitted_at >= self.reset_timeout_s
        ):
            self._probes_inflight = 0
        if self._probes_inflight < self.half_open_max:
            self._probes_inflight += 1
            self._probe_admitted_at = now
            return True
        return False

    # -- outcomes --------------------------------------------------------------
    def record_success(self) -> None:
        if self.state == self.HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._transition(self.CLOSED)
        self._consecutive_failures = 0

    def release(self) -> None:
        """Return an admission that ended without a recordable outcome
        (the attempt was cancelled before completing) so a half-open
        probe slot is never leaked."""
        if self.state == self.HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)

    def record_failure(self) -> None:
        if self.state == self.HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._trip()
            return
        self._consecutive_failures += 1
        if (
            self.state == self.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self._opened_at = self._clock()
        self._transition(self.OPEN)

    def _transition(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        if state == self.OPEN:
            self.opens += 1
            self._consecutive_failures = 0
            kind = EventKind.SUP_BREAKER_OPEN
        elif state == self.HALF_OPEN:
            self._probes_inflight = 0
            kind = EventKind.SUP_BREAKER_HALF_OPEN
        else:
            self.closes += 1
            kind = EventKind.SUP_BREAKER_CLOSED
        if self.tracer.enabled:
            self.tracer.emit(kind, cls=self.cls_name)

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "opens": self.opens,
            "closes": self.closes,
        }

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker {self.cls_name} {self.state} "
            f"failures={self._consecutive_failures}/{self.failure_threshold}>"
        )
