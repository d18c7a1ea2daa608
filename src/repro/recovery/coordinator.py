"""Crash-and-resume orchestration of the fork-based join.

:func:`run_recoverable_join` starts (or continues) a journalled
fault-tolerant join; :func:`resume_join` is the restart path — point it
at the journal a dead run left behind and it replays every completed
chunk's result batch and re-runs only the orphans, returning the
exactly-once multiset plus a :class:`ResumeReport` of what was replayed
versus re-executed.

The join engine itself lives in :mod:`repro.join.mp`
(:func:`~repro.join.mp.fault_tolerant_join`); it is imported lazily so
``repro.recovery`` stays importable from inside :mod:`repro.join`
without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence

from ..trace import NULL_TRACER, Tracer
from .config import RecoveryConfig

__all__ = ["JoinInterrupted", "ResumeReport", "run_recoverable_join", "resume_join"]


class JoinInterrupted(RuntimeError):
    """The join was aborted mid-run (``RecoveryConfig.stop_after_commits``
    test hook) — the journal on disk holds every chunk committed so far
    and :func:`resume_join` picks up from there."""


@dataclass
class ResumeReport:
    """What a resumed join did."""

    #: The exactly-once result multiset (replayed + re-run rows), one
    #: :class:`~repro.geometry.rows.PairTable`.
    pairs: Sequence[tuple]
    #: Chunks whose result batches were adopted from the journal.
    replayed_chunks: int
    #: Chunks (re-)executed by this run.
    rerun_chunks: int
    #: Engine statistics (lease/ledger counters, redispatches, ...).
    stats: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.stats.get("chunks", 0) == self.replayed_chunks + self.rerun_chunks

    def __repr__(self) -> str:
        return (
            f"ResumeReport({len(self.pairs)} pairs, "
            f"replayed={self.replayed_chunks}, rerun={self.rerun_chunks})"
        )


def _normalised(
    recovery: Optional[RecoveryConfig], journal_path: str
) -> RecoveryConfig:
    import dataclasses

    if recovery is None:
        return RecoveryConfig(journal_path=journal_path)
    if recovery.journal_path != journal_path:
        return dataclasses.replace(recovery, journal_path=journal_path)
    return recovery


def run_recoverable_join(
    tree_r,
    tree_s,
    *,
    journal_path: str,
    processes: Optional[int] = None,
    recovery: Optional[RecoveryConfig] = None,
    faults=None,
    geometry_r=None,
    geometry_s=None,
    timeout_s: Optional[float] = None,
    tracer: Tracer = NULL_TRACER,
) -> ResumeReport:
    """One journalled fault-tolerant join (fresh or continuing).

    Identical to :func:`resume_join` — starting a join against an empty
    journal and resuming one against a populated journal are the same
    operation; the names exist so call sites read as what they mean.
    Raises :class:`JoinInterrupted` when ``recovery.stop_after_commits``
    fires (the journal survives for the next call).
    """
    from ..join.mp import fault_tolerant_join

    pairs, stats = fault_tolerant_join(
        tree_r,
        tree_s,
        processes,
        geometry_r=geometry_r,
        geometry_s=geometry_s,
        timeout_s=timeout_s,
        recovery=_normalised(recovery, journal_path),
        faults=faults,
        tracer=tracer,
    )
    return ResumeReport(
        pairs=pairs,
        replayed_chunks=stats.get("replayed_chunks", 0),
        rerun_chunks=stats.get("tasks_committed", 0),
        stats=stats,
    )


def resume_join(
    journal_path: str,
    tree_r,
    tree_s,
    *,
    processes: Optional[int] = None,
    recovery: Optional[RecoveryConfig] = None,
    faults=None,
    geometry_r=None,
    geometry_s=None,
    timeout_s: Optional[float] = None,
    tracer: Tracer = NULL_TRACER,
) -> ResumeReport:
    """Resume a killed join from its journal: replay completed chunks,
    re-run only the orphans, return the exactly-once result.

    The trees must be the same inputs the original run joined — the
    journal's ``meta`` fingerprint is checked and a mismatch raises
    ``ValueError`` instead of silently mis-mapping chunk ids.
    """
    return run_recoverable_join(
        tree_r,
        tree_s,
        journal_path=journal_path,
        processes=processes,
        recovery=recovery,
        faults=faults,
        geometry_r=geometry_r,
        geometry_s=geometry_s,
        timeout_s=timeout_s,
        tracer=tracer,
    )
