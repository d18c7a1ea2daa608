"""Fault-tolerant forked join: lease timing and the process substrate.

The paper's machine never loses a processor, and neither does the
simulator; this layer makes the real-process join survive losing any
worker:

* :mod:`~repro.recovery.config` — the lease timing of one join
  (:class:`RecoveryConfig`) and the wall clock it runs on;
* :mod:`~repro.recovery.procs` — the one process substrate: forked
  workers on pipes, one task to one idle worker, a death reported as an
  event that names the task it cost, and no reply delivered from a
  holder it killed.  The forked join and the serving pools are task
  sources of it.

The forked join (:mod:`repro.join.mp`) owns each chunk's lease and
result itself: a heartbeat-renewed lease per chunk a worker holds, a
chunk whose holder died, raised or went silent requeued.  A dead
*parent* is not recovered: the join is in memory and a rerun from
scratch costs what any resume could save.  The event stream (``LSE_*``)
is checked by the ``lease`` spec monitor
(:mod:`repro.analysis.protocol.specs`) and, beyond it, by
:class:`repro.trace.checkers.RecoveryAccountingChecker`.
"""

from .config import RecoveryConfig, wall_clock

__all__ = ["RecoveryConfig", "wall_clock"]
