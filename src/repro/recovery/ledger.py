"""The exactly-once result ledger.

Lease expiry gives the join *at-least-once* task execution: a task whose
holder was merely slow (not dead) can be re-run while the original
execution still finishes.  The ledger turns that into an *exactly-once*
output multiset: the first completed execution of each task commits its
row batch; every later batch for the same task is dropped (traced as
``LSE_DUP_DROPPED``).
"""

from __future__ import annotations

from typing import Dict, Hashable

from ..geometry.rows import PairTable
from ..trace import NULL_TRACER, EventKind, Tracer

__all__ = ["ResultLedger"]


class ResultLedger:
    """First-completion-wins row accounting, keyed by task/chunk id.

    A batch is kept as it arrived — a worker's
    :class:`~repro.geometry.rows.PairTable` — and never copied or
    re-listed.
    """

    def __init__(self, tracer: Tracer = NULL_TRACER):
        self.tracer = tracer
        self._rows: Dict[Hashable, PairTable] = {}
        self.committed = 0
        self.duplicates_dropped = 0

    def __contains__(self, task: Hashable) -> bool:
        return task in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def commit(
        self, task: Hashable, rows: PairTable, lease: int = -1, proc: int = -1
    ) -> bool:
        """Commit *rows* as the result of *task*; False on a duplicate."""
        if task in self._rows:
            self.duplicates_dropped += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    EventKind.LSE_DUP_DROPPED,
                    proc=proc,
                    task=task,
                    lease=lease,
                    rows=len(rows),
                )
            return False
        self._rows[task] = rows
        self.committed += 1
        return True

    def all_rows(self) -> PairTable:
        """Every committed row as one table, grouped by ascending task id:
        one concatenation of the batches' columns."""
        return PairTable.concat(self._rows[task] for task in sorted(self._rows))

    def stats(self) -> dict:
        return {
            "tasks_committed": self.committed,
            "duplicates_dropped": self.duplicates_dropped,
            "rows": sum(len(rows) for rows in self._rows.values()),
        }

    def __repr__(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.stats().items())
        return f"<ResultLedger {inner}>"
