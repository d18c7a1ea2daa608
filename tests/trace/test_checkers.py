"""Unit tests for the invariant checkers on handcrafted event streams."""

import pytest

from repro.trace import (
    BufferCoherenceChecker,
    ClockMonotonicityChecker,
    DiskAccountingChecker,
    EventKind,
    StealSoundnessChecker,
    TaskConservationChecker,
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


class TestTaskConservation:
    def lawful(self):
        s = Stream()
        s.emit(EventKind.TASK_CREATED, r=1, s=2)
        s.emit(EventKind.PAIR_ENQUEUED, proc=0, level=2, r=1, s=2)
        s.emit(EventKind.PAIR_DEQUEUED, proc=0, level=2, r=1, s=2)
        s.emit(EventKind.EXEC_START, proc=0, level=2, r=1, s=2)
        s.emit(EventKind.EXEC_END, proc=0, level=2, r=1, s=2)
        return s

    def test_lawful_stream_passes(self):
        verdict = verdict_of(TaskConservationChecker(), self.lawful().events)
        assert verdict.ok
        assert verdict.stats["pairs_created"] == 1
        assert verdict.stats["pairs_executed"] == 1
        assert verdict.stats["tasks"] == 1

    def test_double_execution_detected(self):
        s = self.lawful()
        s.emit(EventKind.PAIR_ENQUEUED, proc=1, level=2, r=1, s=2)
        s.emit(EventKind.PAIR_DEQUEUED, proc=1, level=2, r=1, s=2)
        s.emit(EventKind.EXEC_START, proc=1, level=2, r=1, s=2)
        s.emit(EventKind.EXEC_END, proc=1, level=2, r=1, s=2)
        verdict = verdict_of(TaskConservationChecker(), s.events)
        assert not verdict.ok
        assert any("executed 2 times" in v for v in verdict.violations)
        assert any("duplicated work" in v for v in verdict.violations)

    def test_steal_transit_is_lawful(self):
        s = Stream()
        s.emit(EventKind.PAIR_ENQUEUED, proc=0, level=1, r=5, s=6)
        s.emit(EventKind.STEAL_TAKE, proc=0, level=1, r=5, s=6, thief=3)
        s.emit(EventKind.PAIR_ENQUEUED, proc=3, level=1, r=5, s=6)
        s.emit(EventKind.PAIR_DEQUEUED, proc=3, level=1, r=5, s=6)
        s.emit(EventKind.EXEC_START, proc=3, level=1, r=5, s=6)
        s.emit(EventKind.EXEC_END, proc=3, level=1, r=5, s=6)
        assert verdict_of(TaskConservationChecker(), s.events).ok

    def test_stolen_pair_arriving_elsewhere_detected(self):
        s = Stream()
        s.emit(EventKind.PAIR_ENQUEUED, proc=0, level=1, r=5, s=6)
        s.emit(EventKind.STEAL_TAKE, proc=0, level=1, r=5, s=6, thief=3)
        s.emit(EventKind.PAIR_ENQUEUED, proc=2, level=1, r=5, s=6)
        verdict = verdict_of(TaskConservationChecker(), s.events)
        assert any("taken for P3" in v for v in verdict.violations)

    def test_unfinished_pair_detected_at_end(self):
        s = Stream()
        s.emit(EventKind.PAIR_ENQUEUED, proc=0, level=1, r=7, s=8)
        verdict = verdict_of(TaskConservationChecker(), s.events)
        assert not verdict.ok
        assert any("never finished" in v for v in verdict.violations)

    def test_unexecuted_task_detected_at_end(self):
        s = Stream()
        s.emit(EventKind.TASK_CREATED, r=9, s=10)
        verdict = verdict_of(TaskConservationChecker(), s.events)
        assert any("expected 1" in v for v in verdict.violations)

    def test_execute_without_dequeue_detected(self):
        s = Stream()
        s.emit(EventKind.PAIR_ENQUEUED, proc=0, level=1, r=1, s=1)
        s.emit(EventKind.EXEC_START, proc=0, level=1, r=1, s=1)
        verdict = verdict_of(TaskConservationChecker(), s.events)
        assert any("expected state (dequeued" in v for v in verdict.violations)


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
        s = self.start()
        s.emit(EventKind.STEAL_TAKE, proc=2, level=1, r=1, s=1, thief=2)
        verdict = verdict_of(StealSoundnessChecker(), s.events)
        assert any("from itself" in v for v in verdict.violations)

    def test_grant_count_mismatch_detected(self):
        s = self.start()
        s.emit(EventKind.STEAL_TAKE, proc=0, level=1, r=1, s=1, thief=1)
        s.emit(EventKind.STEAL_GRANTED, proc=1, victim=0, level=1, count=2)
        verdict = verdict_of(StealSoundnessChecker(), s.events)
        assert any("reports 2 pairs, but 1 were taken" in v for v in verdict.violations)

    def test_pair_lost_in_transit_detected_at_end(self):
        s = self.start()
        s.emit(EventKind.STEAL_TAKE, proc=0, level=1, r=1, s=1, thief=1)
        s.emit(EventKind.STEAL_GRANTED, proc=1, victim=0, level=1, count=1)
        verdict = verdict_of(StealSoundnessChecker(), s.events)
        assert any("never arrived" in v for v in verdict.violations)


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
            "task-conservation",
            "steal-soundness",
            "buffer-coherence",
            "disk-accounting",
            "clock-monotonicity",
            "resilience-accounting",
            "recovery-accounting",
            "shard-accounting",
            "protocol:lease",
            "protocol:shard-settlement",
            "protocol:buffer-directory",
        ]

    def test_run_checkers_replays_everything(self):
        s = Stream()
        s.emit(EventKind.RUN_START, disks=2, reassign_level="all", task_level=1)
        s.emit(EventKind.RUN_END)
        verdicts = run_checkers(s.events)
        assert len(verdicts) == 11
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
        s = Stream()
        s.emit(EventKind.PAIR_ENQUEUED, proc=0, level=1, r=1, s=1)
        verdict = verdict_of(TaskConservationChecker(), s.events)
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
    """The FLT_*/SUP_* two-ledger reconciliation on handcrafted streams."""

    def verdict(self, stream):
        from repro.trace import ResilienceAccountingChecker

        return verdict_of(ResilienceAccountingChecker(), stream.events)

    def test_healthy_stream_is_vacuously_ok(self):
        assert self.verdict(healthy_run()).ok

    def test_fault_closed_by_ok_reconciles(self):
        verdict = self.verdict(fault_closed_by_ok())
        assert verdict.ok
        assert verdict.stats["injected_calls"] == 1
        assert verdict.stats["calls_ok"] == 1

    def test_unclosed_fault_is_a_silent_loss(self):
        verdict = self.verdict(unclosed_fault())
        assert not verdict.ok
        assert any("silently lost" in v for v in verdict.violations)

    def test_failed_then_retried_reconciles(self):
        assert self.verdict(failed_then_retried()).ok

    def test_unanswered_failure_violates(self):
        verdict = self.verdict(unanswered_failure())
        assert not verdict.ok
        assert any("never answered" in v for v in verdict.violations)

    def test_retry_without_open_failure_violates(self):
        verdict = self.verdict(retry_without_open_failure())
        assert not verdict.ok
        assert any("without an open" in v for v in verdict.violations)

    def test_retry_past_deadline_budget_violates(self):
        verdict = self.verdict(retry_past_deadline_budget())
        assert not verdict.ok
        assert any("deadline budget" in v for v in verdict.violations)

    def test_giveup_must_surface(self):
        verdict = self.verdict(giveup_vanished())
        assert not verdict.ok
        assert any("give-up" in v.lower() for v in verdict.violations)

    def test_giveup_surfaced_as_error_reconciles(self):
        assert self.verdict(giveup_surfaced_as_error()).ok

    def test_crash_victim_closed_as_worker_died_reconciles(self):
        verdict = self.verdict(crash_victim_worker_died())
        assert verdict.ok, verdict.violations
        assert verdict.stats["worker_crashes"] == 1
        assert verdict.stats["worker_respawns"] == 1
        assert self.verdict(crash_victim_abandoned()).ok

    def test_crash_victim_closed_under_another_cause_violates(self):
        verdict = self.verdict(crash_victim_closed_under_another_cause())
        assert not verdict.ok
        assert any("not as worker-died" in v for v in verdict.violations)

    def test_crash_victim_never_closed_violates(self):
        verdict = self.verdict(crash_victim_never_closed())
        assert not verdict.ok
        assert any("never closed as worker-died" in v
                   for v in verdict.violations)
