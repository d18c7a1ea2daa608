"""Fault-tolerant forked join: leases, orphan recovery, exactly-once rows.

The paper's machine never loses a processor, and neither does the
simulator; this layer makes the real-process join survive losing any
worker:

* :mod:`~repro.recovery.lease` — lease-based task ownership with
  heartbeat renewal; a holder that stops renewing is declared dead and
  its task returns to the queue (at-least-once re-execution);
* :mod:`~repro.recovery.ledger` — the exactly-once result ledger:
  first completion per task commits, duplicates are dropped;
* :mod:`~repro.recovery.procs` — the one process substrate: forked
  workers on pipes, one task to one idle worker, a death reported as an
  event that names the task it cost.  The forked join and the serving
  pools are task sources of it.

A dead *parent* is not recovered: the join is in memory and a rerun from
scratch costs what any resume could save.  One implementation, used by
the fork-based ``multiprocessing_join`` with the wall clock.  The event
stream (``LSE_*``) is checked by the ``lease`` spec monitor
(:mod:`repro.analysis.protocol.specs`) and, beyond it, by
:class:`repro.trace.checkers.RecoveryAccountingChecker`.
"""

from .config import RecoveryConfig, wall_clock
from .lease import Lease, LeaseError, LeaseState, LeaseTable
from .ledger import ResultLedger

__all__ = [
    "RecoveryConfig",
    "wall_clock",
    "Lease",
    "LeaseError",
    "LeaseState",
    "LeaseTable",
    "ResultLedger",
]
