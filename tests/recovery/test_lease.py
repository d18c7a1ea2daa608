"""Unit tests for the lease table under a hand-cranked clock."""

import pytest

from repro.recovery import Lease, LeaseError, LeaseState, LeaseTable
from repro.trace import EventKind, ListSink, Tracer


class Clock:
    """A mutable fake clock: ``clock()`` reads, ``clock.advance()`` moves."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture()
def clock():
    return Clock()


@pytest.fixture()
def table(clock):
    return LeaseTable(clock=clock, lease_s=2.0)


class TestGrantAndClose:
    def test_grant_is_active_with_deadline(self, table, clock):
        lease = table.grant(task=7, holder=1)
        assert lease.active
        assert lease.task == 7 and lease.holder == 1
        assert lease.deadline == pytest.approx(clock.now + 2.0)
        assert table.stats()["active"] == 1

    def test_complete_closes_once(self, table):
        lease = table.grant(task=0, holder=0)
        table.complete(lease.id, rows=3)
        assert lease.state is LeaseState.COMPLETED
        assert not lease.active
        with pytest.raises(LeaseError):
            table.complete(lease.id)
        with pytest.raises(LeaseError):
            table.expire(lease.id)

    def test_expire_closes_once(self, table):
        lease = table.grant(task=0, holder=0)
        table.expire(lease.id, reason="test")
        assert lease.state is LeaseState.EXPIRED
        with pytest.raises(LeaseError):
            table.renew(lease.id)

    def test_unknown_lease_rejected(self, table):
        with pytest.raises(LeaseError):
            table.renew(99)
        with pytest.raises(LeaseError):
            table.complete(99)


class TestSweep:
    def test_sweep_expires_only_overdue(self, table, clock):
        early = table.grant(task=0, holder=0)
        clock.advance(1.5)
        late = table.grant(task=1, holder=1)
        clock.advance(1.0)  # early is 2.5s old, late only 1.0s
        overdue = table.sweep()
        assert [l.id for l in overdue] == [early.id]
        assert not early.active
        assert late.active

    def test_renewal_defers_expiry(self, table, clock):
        lease = table.grant(task=0, holder=0)
        clock.advance(1.5)
        table.renew(lease.id)
        clock.advance(1.5)  # 3.0s after grant, 1.5s after renewal
        assert table.sweep() == []
        assert lease.active

    def test_sweep_on_time_is_idempotent(self, table, clock):
        table.grant(task=0, holder=0)
        clock.advance(5.0)
        assert len(table.sweep()) == 1
        assert table.sweep() == []


class TestTracingAndStats:
    def test_lifecycle_emits_lease_events(self, clock):
        sink = ListSink()
        tracer = Tracer(clock=clock, sinks=[sink])
        table = LeaseTable(clock=clock, lease_s=2.0, tracer=tracer)
        done = table.grant(task=0, holder=0)
        lost = table.grant(task=1, holder=1)
        table.renew(done.id)
        table.complete(done.id, rows=5)
        clock.advance(9.0)
        table.sweep()
        kinds = [e.kind for e in sink.events]
        assert kinds == [
            EventKind.LSE_GRANTED,
            EventKind.LSE_GRANTED,
            EventKind.LSE_RENEWED,
            EventKind.LSE_COMPLETED,
            EventKind.LSE_EXPIRED,
        ]
        completed = sink.events[3]
        assert completed.data["rows"] == 5 and completed.data["task"] == 0
        expired = sink.events[4]
        assert expired.data["task"] == 1 and expired.data["reason"] == "deadline"
        assert expired.data["lease"] == lost.id

    def test_stats_reconcile(self, table, clock):
        for task in range(4):
            table.grant(task=task, holder=task % 2)
        table.complete(0)
        clock.advance(9.0)
        table.sweep()
        stats = table.stats()
        assert stats["granted"] == 4
        assert stats["completed"] == 1
        assert stats["expired"] == 3
        assert stats["active"] == 0

    def test_invalid_lease_s_rejected(self, clock):
        with pytest.raises(ValueError):
            LeaseTable(clock=clock, lease_s=0.0)
