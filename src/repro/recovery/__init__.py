"""Fault-tolerant forked join: leases, orphan recovery, durable resume.

The paper's machine never loses a processor, and neither does the
simulator; this layer makes the real-process join survive losing any
worker — or the whole parent process:

* :mod:`~repro.recovery.lease` — lease-based task ownership with
  heartbeat renewal; a holder that stops renewing is declared dead and
  its task returns to the queue (at-least-once re-execution);
* :mod:`~repro.recovery.ledger` — the exactly-once result ledger:
  first completion per task commits, duplicates are dropped;
* :mod:`~repro.recovery.journal` — append-only CRC-framed JSONL journal
  of grants and completed result batches, torn-write-tolerant;
* :mod:`~repro.recovery.coordinator` — ``resume_join``: replay a dead
  run's journal, re-run only the orphans;
* :mod:`~repro.recovery.procs` — the one process substrate: forked
  workers on pipes, one task to one idle worker, a death reported as an
  event that names the task it cost.  The forked join and the serving
  pools are task sources of it.

One implementation, used by the fork-based ``multiprocessing_join`` with
the wall clock.  The event stream (``LSE_*``/``JNL_*``) is checked by the
``lease`` / ``journal`` spec monitors
(:mod:`repro.analysis.protocol.specs`) and, beyond them, by
:class:`repro.trace.checkers.RecoveryAccountingChecker`.
"""

from .config import RecoveryConfig, wall_clock
from .coordinator import (
    JoinInterrupted,
    ResumeReport,
    resume_join,
    run_recoverable_join,
)
from .journal import JoinJournal, JournalScan, scan_journal
from .lease import Lease, LeaseError, LeaseState, LeaseTable
from .ledger import ResultLedger

__all__ = [
    "RecoveryConfig",
    "wall_clock",
    "Lease",
    "LeaseError",
    "LeaseState",
    "LeaseTable",
    "JoinJournal",
    "JournalScan",
    "scan_journal",
    "ResultLedger",
    "JoinInterrupted",
    "ResumeReport",
    "resume_join",
    "run_recoverable_join",
]
