"""Recovery knobs of the forked join: lease timing.

One :class:`RecoveryConfig` parametrises
:func:`repro.join.mp.multiprocessing_join`: every duration is in wall
seconds and the lease clock is :func:`wall_clock`.  The
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
from typing import Callable

__all__ = ["RecoveryConfig", "wall_clock"]


def wall_clock() -> Callable[[], float]:
    """The injected-clock default for the fork path: monotonic wall time.

    Returned as a callable (not called here) so lease deadlines in
    ``join/mp.py`` stay testable — tests substitute a fake clock.
    """
    return time.monotonic


@dataclass(frozen=True)
class RecoveryConfig:
    """Lease timing of one recoverable join.

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

    def __post_init__(self):
        for name in ("lease_s", "sweep_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
