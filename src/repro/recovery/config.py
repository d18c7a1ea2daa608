"""Recovery knobs: lease timing and journal placement.

One :class:`RecoveryConfig` parametrises both recovery paths:

* the **simulated** path (:func:`repro.join.parallel.parallel_spatial_join`
  with ``ParallelJoinConfig.recovery`` set), where every duration is in
  simulated seconds and the lease clock is the simulation clock;
* the **fork** path (:func:`repro.join.mp.multiprocessing_join` /
  :func:`repro.recovery.coordinator.run_recoverable_join`), where the
  durations are wall seconds and the clock is :func:`wall_clock`.

The deterministic components (``sim``/``join``/…, see DET001) never read
the wall clock themselves — they take an injected clock callable, and the
wall-clock default lives here, in the one component that is allowed to
own real time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["RecoveryConfig", "wall_clock"]


def wall_clock() -> Callable[[], float]:
    """The injected-clock default for the fork path: monotonic wall time.

    Returned as a callable (not called here) so lease deadlines in
    ``join/mp.py`` stay testable — tests substitute a fake clock.
    """
    return time.monotonic


@dataclass(frozen=True)
class RecoveryConfig:
    """Lease timing and journal parameters of one recoverable join.

    ``lease_s`` is the ownership deadline: a task (sim) or chunk (fork)
    whose lease goes that long without a heartbeat renewal is declared
    orphaned and returned to the queue.  ``heartbeat_s`` throttles
    renewals (a holder renews at natural progress points — pair
    boundaries in-sim, per-chunk progress counters under fork — but emits
    at most one renewal per interval).  ``sweep_s`` is how often the
    sweeper looks for expired leases (under fork: the longest the parent
    blocks waiting for a result or a death before it looks).
    """

    lease_s: float = 2.0
    heartbeat_s: float = 0.5
    sweep_s: float = 0.25
    #: Append-only JSONL journal; ``None`` keeps the join memory-only
    #: (leases and orphan recovery still work, but a dead parent cannot
    #: resume).
    journal_path: Optional[str] = None
    #: fsync the journal after every append (durable against power loss,
    #: slower); CRC framing tolerates torn tails either way.
    fsync: bool = False
    #: Test/bench hook: abort the fork coordinator (raising
    #: :class:`~repro.recovery.coordinator.JoinInterrupted`) once this
    #: many chunks committed — emulates the parent process dying mid-join
    #: without killing the caller.
    stop_after_commits: Optional[int] = None

    def __post_init__(self):
        if self.lease_s <= 0 or self.heartbeat_s <= 0 or self.sweep_s <= 0:
            raise ValueError("lease_s, heartbeat_s and sweep_s must be > 0")
        if self.heartbeat_s > self.lease_s:
            raise ValueError(
                "heartbeat_s must not exceed lease_s (renewals could "
                "never keep a healthy lease alive)"
            )
        if self.stop_after_commits is not None and self.stop_after_commits < 0:
            raise ValueError("stop_after_commits must be >= 0 (or None)")
