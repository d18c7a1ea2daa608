"""Resilience primitives of the serving engine: typed worker failures and
retries with capped exponential backoff.

These are the paper's task reassignment (§4) — *work moves elsewhere when a
processor falls behind* — applied to faults instead of skew: a failed
worker call is retried (on whichever worker is healthy after the pool
respawn), but always inside the request's original deadline budget; when
the budget or the attempts run out, the typed failure is the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["WorkerError", "RetryPolicy"]


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
