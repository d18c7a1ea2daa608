"""The exactly-once result ledger.

Lease expiry gives the join *at-least-once* task execution: a task whose
holder was merely slow (not dead) can be re-run while the original
execution still finishes, and a resumed join re-reads result batches the
journal already holds.  The ledger turns that into an *exactly-once*
output multiset: the first completed execution of each task commits its
row batch; every later batch for the same task is dropped (traced as
``LSE_DUP_DROPPED``) — and a batch replayed from the journal
(``JNL_REPLAYED``) counts as that task's committed execution, so a resume
never re-runs or double-counts it.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence

from ..geometry.rows import PairTable
from ..trace import NULL_TRACER, EventKind, Tracer

__all__ = ["ResultLedger"]


class ResultLedger:
    """First-completion-wins row accounting, keyed by task/chunk id.

    A batch is kept as it arrived — a worker's
    :class:`~repro.geometry.rows.PairTable` or a journal's JSON row lists —
    and never copied or re-listed.
    """

    def __init__(self, tracer: Tracer = NULL_TRACER):
        self.tracer = tracer
        self._rows: Dict[Hashable, Sequence] = {}
        self.committed = 0
        self.replayed = 0
        self.duplicates_dropped = 0

    def __contains__(self, task: Hashable) -> bool:
        return task in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def commit(
        self, task: Hashable, rows: Sequence, lease: int = -1, proc: int = -1
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

    def replay(self, task: Hashable, rows: Sequence) -> bool:
        """Adopt a journal's completed batch for *task*; False on dup."""
        if task in self._rows:
            self.duplicates_dropped += 1
            return False
        self._rows[task] = rows
        self.replayed += 1
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.JNL_REPLAYED, task=task, rows=len(rows)
            )
        return True

    def rows_for(self, task: Hashable) -> Sequence:
        return self._rows[task]

    def all_rows(self) -> PairTable:
        """Every committed row as one table, grouped by ascending task id:
        one concatenation of the batches' columns."""
        order = sorted(self._rows, key=lambda t: (str(type(t)), t))
        return PairTable.concat(self._rows[task] for task in order)

    def stats(self) -> dict:
        return {
            "tasks_committed": self.committed,
            "tasks_replayed": self.replayed,
            "duplicates_dropped": self.duplicates_dropped,
            "rows": sum(len(rows) for rows in self._rows.values()),
        }

    def __repr__(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.stats().items())
        return f"<ResultLedger {inner}>"
