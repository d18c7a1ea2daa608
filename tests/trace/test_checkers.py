"""Unit tests for the invariant checkers on handcrafted event streams."""

import pytest

from repro.analysis.protocol import ProtocolConformanceChecker, get_spec
from repro.trace import (
    BufferCoherenceChecker,
    ClockMonotonicityChecker,
    DiskAccountingChecker,
    EventKind,
    StealSoundnessChecker,
    TraceEvent,
    default_checkers,
    run_checkers,
)


class Stream:
    """Build event lists with automatic seq numbers and a settable clock."""

    def __init__(self):
        self.events: list[TraceEvent] = []
        self.now = 0.0

    def emit(self, kind, proc=-1, **data):
        self.events.append(TraceEvent(len(self.events), self.now, kind, proc, data))
        return self


def verdict_of(checker, events):
    for event in events:
        checker.handle(event)
    return checker.finish()


# The pair life cycle is the ``pair-lifecycle`` spec's statement.  Its
# streams are named builders: the unit tests below pin what its monitor
# reports, and the planted-bug table (``test_invariant_homes``) replays
# the same streams through every monitor to pin that it alone fails.
def pair_monitor():
    return ProtocolConformanceChecker(get_spec("pair-lifecycle"))


def run_on(s, proc, r, s_, level=1):
    for kind in (EventKind.PAIR_DEQUEUED, EventKind.EXEC_START, EventKind.EXEC_END):
        s.emit(kind, proc=proc, level=level, r=r, s=s_)
    return s


def lawful_pair():
    s = Stream().emit(EventKind.TASK_CREATED, r=1, s=2)
    return run_on(s.emit(EventKind.PAIR_ENQUEUED, proc=0, level=2, r=1, s=2), 0, 1, 2, 2)


def pair_executed_twice():
    s = lawful_pair().emit(EventKind.PAIR_ENQUEUED, proc=1, level=2, r=1, s=2)
    return run_on(s, 1, 1, 2, 2)


def unfinished_pair():
    return Stream().emit(EventKind.PAIR_ENQUEUED, proc=0, level=1, r=7, s=8)


def unexecuted_task():
    return Stream().emit(EventKind.TASK_CREATED, r=9, s=10)


def execution_without_dequeue():
    s = Stream().emit(EventKind.PAIR_ENQUEUED, proc=0, level=1, r=1, s=1)
    return s.emit(EventKind.EXEC_START, proc=0, level=1, r=1, s=1)


def steal_stream(policy="all"):
    """Pair (5, 6) enqueued at P0 under reassignment *policy*."""
    s = Stream().emit(EventKind.RUN_START, reassign_level=policy, task_level=2)
    return s.emit(EventKind.PAIR_ENQUEUED, proc=0, level=1, r=5, s=6)


def take(s, thief=3):
    return s.emit(EventKind.STEAL_TAKE, proc=0, level=1, r=5, s=6, thief=thief)


def grant(s, count=1, thief=3):
    return s.emit(EventKind.STEAL_GRANTED, proc=thief, victim=0, level=1, count=count)


def arrive(s, proc=3):
    return run_on(s.emit(EventKind.PAIR_ENQUEUED, proc=proc, level=1, r=5, s=6), proc, 5, 6)


def lawful_steal(policy="all"):
    return arrive(grant(take(steal_stream(policy))))


def stolen_pair_enqueued_off_its_thief():
    return arrive(grant(take(steal_stream())), proc=2)


def pair_stolen_twice_before_arriving():
    return arrive(grant(take(take(steal_stream())), count=2))


def pair_lost_in_transit():
    return grant(take(steal_stream()))


def self_steal():
    return arrive(grant(take(steal_stream(), thief=0), thief=0), proc=0)


def steal_with_reassignment_off():
    return lawful_steal("none")


def steal_below_the_task_level_under_root():
    return lawful_steal("root")


def grant_overcounting_its_takes():
    return arrive(grant(take(steal_stream()), count=2))


class TestTaskConservation:
    """Every pair runs once, by its owner: the ``pair-lifecycle`` monitor."""

    def test_lawful_stream_passes(self):
        verdict = verdict_of(pair_monitor(), lawful_pair().events)
        assert verdict.ok, verdict.violations
        assert verdict.stats["instances"] == 1
        assert verdict.stats["events"] == 5

    def test_double_execution_detected(self):
        verdict = verdict_of(pair_monitor(), pair_executed_twice().events)
        assert not verdict.ok
        assert any(
            "pair_enqueued in state 'done'" in v for v in verdict.violations
        )

    def test_steal_transit_is_lawful(self):
        verdict = verdict_of(pair_monitor(), lawful_steal().events)
        assert verdict.ok, verdict.violations

    def test_stolen_pair_arriving_elsewhere_detected(self):
        events = stolen_pair_enqueued_off_its_thief().events
        verdict = verdict_of(pair_monitor(), events)
        assert any(
            "pair_enqueued in state 'transit'" in v and "proc=2" in v
            for v in verdict.violations
        )

    def test_unfinished_pair_detected_at_end(self):
        verdict = verdict_of(pair_monitor(), unfinished_pair().events)
        assert not verdict.ok
        assert any("non-terminal state 'resident'" in v for v in verdict.violations)

    def test_unexecuted_task_detected_at_end(self):
        verdict = verdict_of(pair_monitor(), unexecuted_task().events)
        assert any("non-terminal state 'created'" in v for v in verdict.violations)

    def test_execute_without_dequeue_detected(self):
        verdict = verdict_of(pair_monitor(), execution_without_dequeue().events)
        assert any(
            "exec_start in state 'resident'" in v for v in verdict.violations
        )


class TestStealSoundness:
    def start(self, level="all", task_level=2):
        s = Stream()
        s.emit(EventKind.RUN_START, reassign_level=level, task_level=task_level)
        return s

    def test_lawful_steal_passes(self):
        s = self.start()
        for r in (1, 2):
            s.emit(EventKind.STEAL_TAKE, proc=0, level=1, r=r, s=r, thief=1)
        s.emit(EventKind.STEAL_GRANTED, proc=1, victim=0, level=1, count=2)
        for r in (1, 2):
            s.emit(EventKind.PAIR_ENQUEUED, proc=1, level=1, r=r, s=r)
        verdict = verdict_of(StealSoundnessChecker(), s.events)
        assert verdict.ok
        assert verdict.stats == {"steals": 1, "pairs_moved": 2}

    def test_steal_with_policy_none_detected(self):
        s = self.start(level="none")
        s.emit(EventKind.STEAL_TAKE, proc=0, level=1, r=1, s=1, thief=1)
        verdict = verdict_of(StealSoundnessChecker(), s.events)
        assert any("disabled" in v for v in verdict.violations)

    def test_root_policy_wrong_level_detected(self):
        s = self.start(level="root", task_level=2)
        s.emit(EventKind.STEAL_TAKE, proc=0, level=0, r=1, s=1, thief=1)
        verdict = verdict_of(StealSoundnessChecker(), s.events)
        assert any("only allows the task level" in v for v in verdict.violations)

    def test_self_steal_detected(self):
        # A pair's owner cannot steal it: a guard of the pair's life cycle.
        verdict = verdict_of(pair_monitor(), self_steal().events)
        assert any(
            "steal_take in state 'resident'" in v for v in verdict.violations
        )
        assert verdict_of(StealSoundnessChecker(), self_steal().events).ok

    def test_grant_count_mismatch_detected(self):
        s = self.start()
        s.emit(EventKind.STEAL_TAKE, proc=0, level=1, r=1, s=1, thief=1)
        s.emit(EventKind.STEAL_GRANTED, proc=1, victim=0, level=1, count=2)
        verdict = verdict_of(StealSoundnessChecker(), s.events)
        assert any("reports 2 pairs, but 1 were taken" in v for v in verdict.violations)

    def test_pair_lost_in_transit_detected_at_end(self):
        verdict = verdict_of(pair_monitor(), pair_lost_in_transit().events)
        assert any("non-terminal state 'transit'" in v for v in verdict.violations)


# The buffer and resilience streams are named builders: the unit tests
# below pin what *their class* says about each, and the planted-bug table
# (``test_invariant_homes``) replays the same streams through every
# monitor concerned to pin which verdicts fail at all.
def lawful_buffer_traffic():
    s = Stream()
    s.emit(EventKind.BUFFER_INSERT, proc=0, page=5)
    s.emit(EventKind.BUFFER_HIT, proc=0, page=5, source="lru")
    s.emit(EventKind.PAGE_REGISTERED, proc=0, page=5)
    s.emit(EventKind.REMOTE_FETCH, proc=1, page=5, owner=0)
    s.emit(EventKind.PAGE_DEREGISTERED, proc=0, page=5)
    s.emit(EventKind.BUFFER_EVICT, proc=0, page=5)
    return s


def phantom_lru_hit():
    return Stream().emit(EventKind.BUFFER_HIT, proc=0, page=9, source="lru")


def path_buffer_hit():
    # Path-buffer hits live outside the LRU; no residency obligation.
    return Stream().emit(EventKind.BUFFER_HIT, proc=0, page=9, source="path")


def phantom_evict():
    return Stream().emit(EventKind.BUFFER_EVICT, proc=0, page=9)


class TestBufferCoherence:
    def test_lawful_traffic_passes(self):
        verdict = verdict_of(
            BufferCoherenceChecker(), lawful_buffer_traffic().events
        )
        assert verdict.ok
        assert verdict.stats["lru_hits"] == 1
        assert verdict.stats["remote_fetches"] == 1

    def test_phantom_lru_hit_detected(self):
        verdict = verdict_of(BufferCoherenceChecker(), phantom_lru_hit().events)
        assert any("not resident" in v for v in verdict.violations)

    def test_path_hits_not_residency_checked(self):
        assert verdict_of(BufferCoherenceChecker(), path_buffer_hit().events).ok

    def test_phantom_evict_detected(self):
        verdict = verdict_of(BufferCoherenceChecker(), phantom_evict().events)
        assert any("never held" in v for v in verdict.violations)


@pytest.fixture(scope="module")
def traced_events():
    """The event lists of one traced GD and one traced LSR run."""
    from repro.datagen import build_tree, paper_maps
    from repro.join import GD, LSR, ParallelJoinConfig, parallel_spatial_join
    from repro.join import prepare_trees
    from repro.trace import TraceConfig

    map_r, map_s = paper_maps(scale=0.02)
    tree_r, tree_s = build_tree(map_r), build_tree(map_s)
    store = prepare_trees(tree_r, tree_s)
    events = {}
    for variant in (GD, LSR):
        config = ParallelJoinConfig(
            processors=8,
            disks=8,
            total_buffer_pages=320,
            variant=variant,
            trace=TraceConfig(checkers=False),
        )
        result = parallel_spatial_join(tree_r, tree_s, config, page_store=store)
        events[variant.short_name] = result.trace.events
    return events


def with_second_copy(events):
    """*events* with another processor inserting the page of the run's
    last ``BUFFER_INSERT`` right after it (no later insert of that page
    can trip over the planted holder)."""
    at = max(
        i for i, e in enumerate(events) if e.kind is EventKind.BUFFER_INSERT
    )
    first = events[at]
    second = TraceEvent(
        first.seq, first.time, EventKind.BUFFER_INSERT, (first.proc + 1) % 8,
        {"page": first.data["page"]},
    )
    return events[: at + 1] + [second] + events[at + 1 :]


class TestAtMostOnceResidencyOnRealRuns:
    @pytest.mark.parametrize("variant", ["gd", "lsr"])
    def test_real_runs_hold_the_invariant(self, traced_events, variant):
        verdict = verdict_of(BufferCoherenceChecker(), traced_events[variant])
        assert verdict.ok, verdict.violations
        assert verdict.stats["lru_hits"] > 0

    @pytest.mark.parametrize("variant, violations", [("gd", 1), ("lsr", 0)])
    def test_a_spliced_second_copy_is_flagged_only_with_the_global_buffer(
        self, traced_events, variant, violations
    ):
        events = with_second_copy(traced_events[variant])
        verdict = verdict_of(BufferCoherenceChecker(), events)
        assert verdict.violation_count == violations, verdict.violations


class TestDiskAccounting:
    def test_lawful_requests_pass(self):
        s = Stream()
        s.emit(EventKind.RUN_START, disks=4)
        s.emit(EventKind.DISK_ENQUEUE, proc=0, page=8, disk=0)
        s.now = 0.0125
        s.emit(EventKind.DISK_COMPLETE, proc=0, page=8, disk=0, start=0.0)
        s.emit(EventKind.DISK_ENQUEUE, proc=1, page=4, disk=0)
        s.now = 0.025
        s.emit(EventKind.DISK_COMPLETE, proc=1, page=4, disk=0, start=0.0125)
        verdict = verdict_of(DiskAccountingChecker(), s.events)
        assert verdict.ok
        assert verdict.stats["disk_reads"] == 2

    def test_wrong_disk_detected(self):
        s = Stream()
        s.emit(EventKind.RUN_START, disks=4)
        s.emit(EventKind.DISK_ENQUEUE, proc=0, page=9, disk=0)
        verdict = verdict_of(DiskAccountingChecker(), s.events)
        assert any("expected 1" in v for v in verdict.violations)

    def test_completion_without_enqueue_detected(self):
        s = Stream()
        s.emit(EventKind.DISK_COMPLETE, proc=0, page=8, disk=0, start=0.0)
        verdict = verdict_of(DiskAccountingChecker(), s.events)
        assert any("without enqueue" in v for v in verdict.violations)

    def test_overlapping_service_detected(self):
        s = Stream()
        s.emit(EventKind.RUN_START, disks=4)
        s.emit(EventKind.DISK_ENQUEUE, proc=0, page=8, disk=0)
        s.emit(EventKind.DISK_ENQUEUE, proc=1, page=4, disk=0)
        s.now = 0.0125
        s.emit(EventKind.DISK_COMPLETE, proc=0, page=8, disk=0, start=0.0)
        s.now = 0.015
        # Second request started before the first finished.
        s.emit(EventKind.DISK_COMPLETE, proc=1, page=4, disk=0, start=0.01)
        verdict = verdict_of(DiskAccountingChecker(), s.events)
        assert any("while busy until" in v for v in verdict.violations)

    def test_unfinished_request_detected_at_end(self):
        s = Stream()
        s.emit(EventKind.RUN_START, disks=4)
        s.emit(EventKind.DISK_ENQUEUE, proc=0, page=8, disk=0)
        verdict = verdict_of(DiskAccountingChecker(), s.events)
        assert any("never completed" in v for v in verdict.violations)


class TestClockMonotonicity:
    def test_forward_time_passes(self):
        s = Stream()
        s.emit(EventKind.RUN_START)
        s.now = 1.0
        s.emit(EventKind.EXEC_START, proc=0, r=1, s=1)
        s.now = 2.0
        s.emit(EventKind.EXEC_START, proc=1, r=2, s=2)
        verdict = verdict_of(ClockMonotonicityChecker(), s.events)
        assert verdict.ok
        assert verdict.stats["processors_seen"] == 2

    def test_backwards_time_detected(self):
        events = [
            TraceEvent(0, 1.0, EventKind.RUN_START),
            TraceEvent(1, 0.5, EventKind.RUN_END),
        ]
        verdict = verdict_of(ClockMonotonicityChecker(), events)
        assert any("ran backwards" in v for v in verdict.violations)

    def test_non_monotone_seq_detected(self):
        events = [
            TraceEvent(5, 0.0, EventKind.RUN_START),
            TraceEvent(5, 0.0, EventKind.RUN_END),
        ]
        verdict = verdict_of(ClockMonotonicityChecker(), events)
        assert any("sequence number" in v for v in verdict.violations)


class TestCheckerPlumbing:
    def test_default_checkers_are_the_standard_ones(self):
        names = [checker.name for checker in default_checkers()]
        assert names == [
            "steal-soundness",
            "buffer-coherence",
            "disk-accounting",
            "clock-monotonicity",
            "recovery-accounting",
            "shard-accounting",
            "protocol:lease",
            "protocol:shard-settlement",
            "protocol:buffer-directory",
            "protocol:pair-lifecycle",
            "protocol:service-ledger",
            "protocol:worker-call",
            "protocol:worker-process",
        ]

    def test_run_checkers_replays_everything(self):
        s = Stream()
        s.emit(EventKind.RUN_START, disks=2, reassign_level="all", task_level=1)
        s.emit(EventKind.RUN_END)
        verdicts = run_checkers(s.events)
        assert len(verdicts) == 13
        assert all(v.ok for v in verdicts)

    def test_violation_storage_is_capped(self):
        from repro.trace.checkers import MAX_STORED_VIOLATIONS

        checker = ClockMonotonicityChecker()
        events = [
            TraceEvent(0, float(MAX_STORED_VIOLATIONS + 10 - i), EventKind.RUN_START)
            for i in range(MAX_STORED_VIOLATIONS + 10)
        ]
        verdict = verdict_of(checker, events)
        assert verdict.violation_count >= MAX_STORED_VIOLATIONS
        assert len(verdict.violations) == MAX_STORED_VIOLATIONS

    def test_verdict_summary_mentions_counts(self):
        verdict = verdict_of(pair_monitor(), unfinished_pair().events)
        assert verdict.checker in verdict.summary()
        assert "violation" in verdict.summary()


def healthy_run():
    s = Stream()
    s.emit(EventKind.RUN_START, disks=1, reassign_level="none", task_level=0)
    s.emit(EventKind.RUN_END)
    return s


def fault_closed_by_ok():
    s = Stream()
    s.emit(EventKind.FLT_INJECT_SLOW_IO, call=3, sleep_s=0.01)
    s.emit(EventKind.SUP_CALL_OK, call=3)
    return s


def unclosed_fault():
    return Stream().emit(EventKind.FLT_INJECT_CRASH, call=5)


def failed_then_retried():
    s = Stream()
    s.emit(EventKind.FLT_INJECT_CRASH, call=1)
    s.emit(EventKind.SUP_CALL_FAILED, call=1, op="knn", error="deadline")
    s.emit(EventKind.SUP_CALL_RETRY, call=1, attempt=1, delay_s=0.02,
           remaining_s=1.5)
    s.emit(EventKind.SUP_CALL_OK, call=2)
    return s


def unanswered_failure():
    return Stream().emit(
        EventKind.SUP_CALL_FAILED, call=4, op="knn", error="deadline"
    )


def retry_without_open_failure():
    return Stream().emit(
        EventKind.SUP_CALL_RETRY, call=9, attempt=1, delay_s=0.02
    )


def retry_past_deadline_budget():
    s = Stream()
    s.emit(EventKind.SUP_CALL_FAILED, call=2, op="windows", error="x")
    s.emit(EventKind.SUP_CALL_RETRY, call=2, attempt=1, delay_s=0.02,
           remaining_s=-0.5)
    return s


def giveup(*surfaced):
    """A failure given up on, then the *surfaced* request outcomes."""
    s = Stream()
    s.emit(EventKind.SUP_CALL_FAILED, call=2, op="knn", error="deadline")
    s.emit(EventKind.SUP_CALL_GIVEUP, call=2, attempts=3, error="deadline")
    for kind in surfaced:
        s.emit(kind, cls="knn")
    return s


def giveup_vanished():
    # No SVC_REQUEST_ERROR/TIMEOUT/CANCELLED: the give-up vanished.
    return giveup()


def giveup_surfaced_as_error():
    return giveup(EventKind.SVC_REQUEST_ERROR)


def crash_stream(*closing):
    """A crash that names call 7 as its victim, then *closing*."""
    s = Stream()
    s.emit(EventKind.FLT_INJECT_CRASH, call=7)
    s.emit(EventKind.SUP_WORKER_CRASH_DETECTED, pid=41, pool="",
           exitcode=86, call=7)
    s.emit(EventKind.SUP_WORKER_RESPAWNED, pid=42, pool="")
    for kind, data in closing:
        s.emit(kind, call=7, **data)
    return s


def crash_victim_worker_died():
    return crash_stream(
        (EventKind.SUP_CALL_FAILED, {"op": "knn", "error": "worker-died"}),
        (EventKind.SUP_CALL_RETRY, {"attempt": 1, "delay_s": 0.0}),
    )


def crash_victim_abandoned():
    # The awaiter may vanish in the same instant: also lawful.
    return crash_stream((EventKind.SUP_CALL_ABANDONED, {}))


def crash_victim_closed_under_another_cause():
    """Planted bug: the pool learnt of the death, named the call, and
    still let it run into its deadline (what every crash did before
    deaths were events)."""
    return crash_stream(
        (EventKind.SUP_CALL_FAILED, {"op": "knn", "error": "deadline"}),
        (EventKind.SUP_CALL_RETRY, {"attempt": 1, "delay_s": 0.0}),
    )


def crash_victim_never_closed():
    return crash_stream()


class TestResilienceAccounting:
    """The FLT_*/SUP_* two-ledger reconciliation on handcrafted streams:
    what the ``worker-call`` (per call id) and ``worker-process`` (per
    pid) spec monitors report.  The planted-bug table pins that no other
    monitor speaks on these streams."""

    def verdicts(self, stream):
        return run_checkers(
            stream.events,
            [
                ProtocolConformanceChecker(get_spec("worker-call")),
                ProtocolConformanceChecker(get_spec("worker-process")),
            ],
        )

    def violation(self, stream):
        """The one violation of the worker-call monitor."""
        calls, processes = self.verdicts(stream)
        assert processes.ok, processes.violations
        assert calls.violation_count == 1, calls.violations
        return calls.violations[0]

    def test_healthy_stream_is_vacuously_ok(self):
        for verdict in self.verdicts(healthy_run()):
            assert verdict.ok
            assert verdict.stats["instances"] == 0

    def test_fault_closed_by_ok_reconciles(self):
        calls, _ = self.verdicts(fault_closed_by_ok())
        assert calls.ok
        assert (calls.stats["events"], calls.stats["instances"]) == (2, 1)

    def test_unclosed_fault_is_a_silent_loss(self):
        assert self.violation(unclosed_fault()).startswith(
            "worker-call[5]: stream ended in non-terminal state 'open'"
        )

    def test_failed_then_retried_reconciles(self):
        assert all(v.ok for v in self.verdicts(failed_then_retried()))

    def test_unanswered_failure_violates(self):
        assert self.violation(unanswered_failure()).startswith(
            "worker-call[4]: stream ended in non-terminal state 'failing'"
        )

    def test_retry_without_open_failure_violates(self):
        calls, _ = self.verdicts(retry_without_open_failure())
        assert calls.violations[0].startswith(
            "worker-call[9]: no transition enabled for sup_call_retry in "
            "state 'open'"
        )

    def test_retry_past_deadline_budget_violates(self):
        calls, _ = self.verdicts(retry_past_deadline_budget())
        refused = calls.violations[0]
        assert refused.startswith(
            "worker-call[2]: no transition enabled for sup_call_retry in "
            "state 'failing'"
        )
        assert "'remaining_s': -0.5" in refused

    def test_giveup_must_surface(self):
        assert self.violation(giveup_vanished()).startswith(
            "worker-call: end invariant giveups_surface failed"
        )

    def test_giveup_surfaced_as_error_reconciles(self):
        calls, _ = self.verdicts(giveup_surfaced_as_error())
        assert calls.ok, calls.violations
        assert (calls.stats["giveups"], calls.stats["errors"]) == (1, 1)

    def test_crash_victim_closed_as_worker_died_reconciles(self):
        calls, processes = self.verdicts(crash_victim_worker_died())
        assert calls.ok, calls.violations
        # pid 41 crashed, pid 42 was forked in its place
        assert processes.ok and processes.stats["instances"] == 2
        assert all(v.ok for v in self.verdicts(crash_victim_abandoned()))

    def test_crash_victim_closed_under_another_cause_violates(self):
        calls, _ = self.verdicts(crash_victim_closed_under_another_cause())
        assert calls.violations[0].startswith(
            "worker-call[7]: no transition enabled for sup_call_failed in "
            "state 'victim'"
        )

    def test_crash_victim_never_closed_violates(self):
        assert self.violation(crash_victim_never_closed()).startswith(
            "worker-call[7]: stream ended in non-terminal state 'victim'"
        )
