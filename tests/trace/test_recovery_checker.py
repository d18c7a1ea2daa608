"""RecoveryAccountingChecker on handcrafted lease event streams.

The streams are named builders so that the planted-bug table
(``test_invariant_homes``) can replay them too.  The lease life cycle,
per task and per lease id, is the ``lease`` spec's one statement: its
violations are replayed through the spec monitor here.
"""

from repro.analysis.protocol import ProtocolConformanceChecker, get_spec
from repro.trace import EventKind, RecoveryAccountingChecker, TraceEvent


class Stream:
    def __init__(self):
        self.events: list[TraceEvent] = []
        self.now = 0.0

    def emit(self, kind, proc=-1, **data):
        self.events.append(TraceEvent(len(self.events), self.now, kind, proc, data))
        return self


def lease_verdict(events):
    return verdict_of(events, ProtocolConformanceChecker(get_spec("lease")))


def verdict_of(events, checker=None):
    checker = checker or RecoveryAccountingChecker()
    for event in events:
        checker.handle(event)
    return checker.finish()


def lawful_stream():
    """Grant → kill → expire+requeue → regrant → complete."""
    s = Stream()
    s.emit(EventKind.LSE_GRANTED, proc=0, task=1, lease=0)
    s.emit(EventKind.LSE_RENEWED, proc=0, task=1, lease=0)
    s.emit(EventKind.FLT_INJECT_TASK_KILL, proc=0, task=1)
    s.emit(EventKind.LSE_EXPIRED, proc=0, task=1, lease=0, reason="deadline")
    s.emit(EventKind.LSE_REQUEUED, proc=0, task=1)
    s.emit(EventKind.LSE_GRANTED, proc=1, task=1, lease=1)
    s.emit(EventKind.LSE_COMPLETED, proc=1, task=1, lease=1, rows=3)
    s.emit(EventKind.RUN_END, candidates=3)
    return s


def leaked_lease():
    return Stream().emit(EventKind.LSE_GRANTED, proc=0, task=1, lease=0)


def renew_of_expired_lease():
    s = Stream()
    s.emit(EventKind.LSE_GRANTED, proc=0, task=1, lease=0)
    s.emit(EventKind.LSE_EXPIRED, proc=0, task=1, lease=0, reason="x")
    s.emit(EventKind.LSE_REQUEUED, proc=0, task=1)
    s.emit(EventKind.LSE_RENEWED, proc=0, task=1, lease=0)
    return s


def undetected_kill():
    s = Stream()
    s.emit(EventKind.LSE_GRANTED, proc=0, task=1, lease=0)
    s.emit(EventKind.FLT_INJECT_TASK_KILL, proc=0, task=1)
    s.emit(EventKind.LSE_COMPLETED, proc=0, task=1, lease=0, rows=1)
    return s


def run_end_row_mismatch():
    s = lawful_stream()
    s.events[-1] = TraceEvent(
        len(s.events), 0.0, EventKind.RUN_END, -1, {"candidates": 99}
    )
    return s


class TestLawfulStreams:
    def test_kill_expire_requeue_complete_passes(self):
        verdict = verdict_of(lawful_stream().events)
        assert verdict.ok, verdict.violations
        assert verdict.stats["task_kills"] == 1
        lease = lease_verdict(lawful_stream().events)
        assert lease.ok, lease.violations
        assert (lease.stats["grants"], lease.stats["requeues"]) == (2, 1)

    def test_empty_stream_is_vacuous(self):
        assert verdict_of([]).ok


class TestViolations:
    def test_leaked_lease_detected(self):
        verdict = lease_verdict(leaked_lease().events)
        assert not verdict.ok
        assert any("non-terminal state 'leased'" in v for v in verdict.violations)

    def test_renew_of_expired_lease_detected(self):
        verdict = lease_verdict(renew_of_expired_lease().events)
        assert any(
            "lse_renewed in state 'queued'" in v for v in verdict.violations
        )

    def test_undetected_kill_flagged(self):
        verdict = verdict_of(undetected_kill().events)
        assert any("undetected" in v for v in verdict.violations)

    def test_run_end_row_mismatch_detected(self):
        verdict = verdict_of(run_end_row_mismatch().events)
        assert any("rows lost or double-counted" in v for v in verdict.violations)
