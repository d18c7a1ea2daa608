"""Lease-based task ownership with heartbeat renewal.

Every chunk of the task range under ``multiprocessing_join`` is executed
under a :class:`Lease`: a deadline-bound ownership claim granted by the
coordinator and kept alive by heartbeat renewals from the holder.  A
holder that crashes or wedges stops renewing; the next
:meth:`LeaseTable.sweep` expires the lease, and the coordinator returns
the chunk to the queue for at-least-once re-execution (the exactly-once
output is restored downstream by the
:class:`~repro.recovery.ledger.ResultLedger`).

The clock is injected: the fork coordinator passes
:func:`repro.recovery.config.wall_clock`, tests a fake.  Lease events
(``LSE_*``) are checked per task and per lease id by the ``lease`` spec's
monitor (:mod:`repro.analysis.protocol.specs`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List

from ..trace import NULL_TRACER, EventKind, Tracer

__all__ = ["LeaseState", "Lease", "LeaseTable", "LeaseError"]


class LeaseError(RuntimeError):
    """An unlawful lease transition (double grant, renew of closed, ...)."""


class LeaseState(enum.Enum):
    ACTIVE = "active"
    COMPLETED = "completed"
    EXPIRED = "expired"


@dataclass
class Lease:
    """One ownership claim: *holder* executes *task* until *deadline*."""

    id: int
    task: Hashable
    holder: int
    granted_at: float
    deadline: float
    renewals: int = 0
    state: LeaseState = field(default=LeaseState.ACTIVE)

    @property
    def active(self) -> bool:
        return self.state is LeaseState.ACTIVE


class LeaseTable:
    """All leases of one run, with sweep-based expiry detection.

    ``clock`` is any monotone float-returning callable; ``lease_s`` is the
    renewal deadline.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        lease_s: float,
        tracer: Tracer = NULL_TRACER,
    ):
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        self.clock = clock
        self.lease_s = lease_s
        self.tracer = tracer
        self._leases: Dict[int, Lease] = {}
        self._next_id = 0
        self.granted = 0
        self.completed = 0
        self.expired = 0
        self.renewals = 0

    # -- grants ----------------------------------------------------------------
    def grant(self, task: Hashable, holder: int) -> Lease:
        """Grant a fresh lease on *task* to *holder*."""
        now = self.clock()
        lease = Lease(
            id=self._next_id,
            task=task,
            holder=holder,
            granted_at=now,
            deadline=now + self.lease_s,
        )
        self._next_id += 1
        self._leases[lease.id] = lease
        self.granted += 1
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.LSE_GRANTED,
                proc=holder,
                task=task,
                lease=lease.id,
                deadline=lease.deadline,
            )
        return lease

    # -- heartbeats ------------------------------------------------------------
    def renew(self, lease_id: int) -> None:
        """Push one active lease's deadline ``lease_s`` past now."""
        lease = self._leases.get(lease_id)
        if lease is None or not lease.active:
            raise LeaseError(f"renew of non-active lease {lease_id}")
        lease.deadline = self.clock() + self.lease_s
        lease.renewals += 1
        self.renewals += 1
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.LSE_RENEWED,
                proc=lease.holder,
                task=lease.task,
                lease=lease.id,
                deadline=lease.deadline,
            )

    # -- closure ---------------------------------------------------------------
    def complete(self, lease_id: int, rows: int = 0) -> Lease:
        """Close a lease successfully; *rows* is the result-row count the
        holder produced."""
        lease = self._leases.get(lease_id)
        if lease is None or not lease.active:
            raise LeaseError(f"complete of non-active lease {lease_id}")
        lease.state = LeaseState.COMPLETED
        self.completed += 1
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.LSE_COMPLETED,
                proc=lease.holder,
                task=lease.task,
                lease=lease.id,
                rows=rows,
            )
        return lease

    def expire(self, lease_id: int, reason: str = "forced") -> Lease:
        """Force-expire an active lease (its holder died or raised)."""
        lease = self._leases.get(lease_id)
        if lease is None or not lease.active:
            raise LeaseError(f"expire of non-active lease {lease_id}")
        self._expire(lease, reason)
        return lease

    def sweep(self) -> List[Lease]:
        """Expire every active lease whose deadline passed; returns them."""
        now = self.clock()
        overdue = [
            lease
            for lease in self._leases.values()
            if lease.active and lease.deadline < now
        ]
        for lease in overdue:
            self._expire(lease, "deadline")
        return overdue

    def _expire(self, lease: Lease, reason: str) -> None:
        lease.state = LeaseState.EXPIRED
        self.expired += 1
        if self.tracer.enabled:
            self.tracer.emit(
                EventKind.LSE_EXPIRED,
                proc=lease.holder,
                task=lease.task,
                lease=lease.id,
                reason=reason,
            )

    # -- introspection ---------------------------------------------------------
    def stats(self) -> dict:
        return {
            "granted": self.granted,
            "completed": self.completed,
            "expired": self.expired,
            "renewals": self.renewals,
            "active": sum(lease.active for lease in self._leases.values()),
        }

    def __repr__(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.stats().items())
        return f"<LeaseTable {inner}>"
