"""Recovery knobs of the forked join: lease timing and journal placement.

One :class:`RecoveryConfig` parametrises
:func:`repro.join.mp.multiprocessing_join` (and
:func:`repro.recovery.coordinator.run_recoverable_join`): every duration
is in wall seconds and the lease clock is :func:`wall_clock`.  The
simulated join has no recovery — its machine, like the paper's, never
fails.

The deterministic components (``sim``/``join``/…, see DET001) never read
the wall clock themselves — they take an injected clock callable, and the
wall-clock default lives here, in the one component that is allowed to
own real time.
"""

from __future__ import annotations

import math
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

    ``lease_s`` is the ownership deadline: a chunk whose lease goes that
    long without a heartbeat renewal is declared orphaned and returned to
    the queue.  A worker beats on a per-chunk progress counter, and the
    parent renews a lease whenever that counter moved.  ``sweep_s`` is the
    longest the parent blocks waiting for a result or a death before it
    reads the counters and sweeps for expired leases.  Each duration must
    be finite and positive: an infinite lease never expires, so a hung
    worker would never be detected.
    """

    lease_s: float = 2.0
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
        for name in ("lease_s", "sweep_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.stop_after_commits is not None and self.stop_after_commits < 0:
            raise ValueError("stop_after_commits must be >= 0 (or None)")
