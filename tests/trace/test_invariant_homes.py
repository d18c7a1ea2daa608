"""One home per protocol invariant: the planted-bug table.

Each row is *(stream, the set of verdict names that must fail)* over
every monitor that could claim a protocol invariant — the accounting
classes of ``repro.trace.checkers`` and the spec monitors of
``repro.analysis.protocol``.  A violation whose statement is a spec fails
exactly ``{"protocol:<spec>"}``; one whose rule stays hand-written
(geometry, row sums, cross-stream reconciliation) fails exactly its
class; a lawful stream fails nothing.  A second name
in a row means an invariant has grown a second home.

The streams are the ones the three checker unit-test modules build;
those whose hand-written copy is deleted live here only.
"""

import pytest

from repro.analysis.protocol import conformance_checkers
from repro.trace import (
    BufferCoherenceChecker,
    EventKind,
    RecoveryAccountingChecker,
    ShardAccountingChecker,
    StealSoundnessChecker,
    run_checkers,
)
from tests.trace import test_checkers as tc
from tests.trace import test_recovery_checker as rc
from tests.trace import test_shard_checker as sc

LEASE = {"protocol:lease"}
SETTLEMENT = {"protocol:shard-settlement"}
DIRECTORY = {"protocol:buffer-directory"}
BUFFER = {"buffer-coherence"}
CALLS = {"protocol:worker-call"}
PROCESSES = {"protocol:worker-process"}
RECOVERY = {"recovery-accounting"}
SHARD = {"shard-accounting"}
PAIRS = {"protocol:pair-lifecycle"}
LEDGER = {"protocol:service-ledger"}
STEAL = {"steal-soundness"}
LAWFUL: set = set()


# -- buffer directory: owner / self / foreign -----------------------------------
def registered(owner):
    return tc.Stream().emit(EventKind.PAGE_REGISTERED, proc=owner, page=4)


def remote_fetch_from_wrong_owner():
    return registered(0).emit(EventKind.REMOTE_FETCH, proc=2, page=4, owner=1)


def remote_fetch_from_self():
    return registered(1).emit(EventKind.REMOTE_FETCH, proc=1, page=4, owner=1)


def conflicting_registration():
    return registered(0).emit(EventKind.PAGE_REGISTERED, proc=1, page=4)


def foreign_deregistration():
    return registered(0).emit(EventKind.PAGE_DEREGISTERED, proc=1, page=4)


# -- at-most-once residency (paper §3.2) ----------------------------------------
# The planted trace of the deleted race detector, stream by stream: its
# register-over-live-owner stream (lost update) is `conflicting_registration`
# above; its two unordered inserts of page 9 (double residency and
# write/write) and its remote fetch of a page nobody owns are below.
def inserted_by_two(buffer):
    s = tc.Stream().emit(EventKind.RUN_START, buffer=buffer)
    s.emit(EventKind.BUFFER_INSERT, proc=0, page=9)
    return s.emit(EventKind.BUFFER_INSERT, proc=1, page=9)


def second_copy_in_global_buffer():
    return inserted_by_two("global")


def second_copy_in_local_buffers():
    return inserted_by_two("local")


def remote_fetch_of_unowned_page():
    return tc.Stream().emit(EventKind.REMOTE_FETCH, proc=0, page=1, owner=2)


# -- lease: the per-task life cycle -------------------------------------------
def double_completion_of_one_task():
    s = rc.Stream()
    for lease in (0, 1):
        s.emit(EventKind.LSE_GRANTED, proc=lease, task=1, lease=lease, split=0)
        s.emit(
            EventKind.LSE_COMPLETED, proc=lease, task=1, lease=lease, split=0, rows=1
        )
    return s


def one_lease_completed_twice():
    s = rc.Stream()
    s.emit(EventKind.LSE_GRANTED, proc=0, task=1, lease=0)
    s.emit(EventKind.LSE_COMPLETED, proc=0, task=1, lease=0, rows=1)
    return s.emit(EventKind.LSE_COMPLETED, proc=0, task=1, lease=0, rows=1)


def completion_naming_another_lease():
    s = rc.Stream()
    s.emit(EventKind.LSE_GRANTED, proc=0, task=1, lease=0)
    return s.emit(EventKind.LSE_COMPLETED, proc=0, task=1, lease=5, rows=1)


def unrequeued_orphan():
    s = rc.Stream()
    s.emit(EventKind.LSE_GRANTED, proc=0, task=1, lease=0, split=0)
    s.emit(EventKind.LSE_EXPIRED, proc=0, task=1, lease=0, split=0, reason="x")
    return s


def requeue_without_expiry():
    return rc.Stream().emit(EventKind.LSE_REQUEUED, proc=0, task=1)


def dup_drop_without_first_copy():
    return rc.Stream().emit(EventKind.LSE_DUP_DROPPED, proc=0, task=4)


# -- shard settlement: (request, shard) settles exactly once ------------------
def sent_and_done():
    return sc.settle(sc.routed_window(sc.topology(sc.Stream())), 1, 0, rows=2)


def double_done():
    return sent_and_done().emit(
        EventKind.SHD_SUBREQUEST_DONE, req=1, shard=0, replica=0, attempt=0, rows=2
    )


def unsettled_subrequest():
    return sc.routed_window(sc.topology(sc.Stream())).emit(
        EventKind.SHD_SUBREQUEST_SENT, req=1, shard=0, replica=0, attempt=0,
        op="windows",
    )


def failed_after_done():
    return sent_and_done().emit(
        EventKind.SHD_SUBREQUEST_FAILED, req=1, shard=0, attempts=1, error="late"
    )


# -- the serving ledger: requests, cache and batches --------------------------
def request(s, *then, cache=1):
    """One admitted window request, then the events *then*."""
    s.emit(EventKind.SVC_REQUEST_SUBMITTED, cls="window")
    s.emit(EventKind.SVC_REQUEST_ADMITTED, cls="window", cache=cache)
    for kind in then:
        s.emit(kind, cls="window", key="k")
    return s


def lawful_service_ledger():
    s = tc.Stream().emit(EventKind.SVC_ENGINE_START, trees="map1")
    request(s, EventKind.SVC_CACHE_MISS, EventKind.SVC_CACHE_INSERT)
    s.emit(EventKind.SVC_BATCH_EXECUTED, size=1)
    s.emit(EventKind.SVC_REQUEST_COMPLETED, cls="window")
    request(s, EventKind.SVC_CACHE_HIT, EventKind.SVC_REQUEST_COMPLETED)
    request(s, EventKind.SVC_REQUEST_TIMEOUT)  # timed out before its lookup
    s.emit(EventKind.SVC_REQUEST_SUBMITTED, cls="window")
    s.emit(EventKind.SVC_REQUEST_REJECTED, cls="window", reason="capacity")
    s.emit(EventKind.SVC_CACHE_EVICT, key="k")
    return s.emit(EventKind.SVC_ENGINE_STOP)


def submitted_but_neither_admitted_nor_rejected():
    return tc.Stream().emit(EventKind.SVC_REQUEST_SUBMITTED, cls="window")


def admitted_request_without_outcome_at_stop():
    return request(tc.Stream(), cache=0).emit(EventKind.SVC_ENGINE_STOP)


def eviction_without_insert():
    return tc.Stream().emit(EventKind.SVC_CACHE_EVICT, key="k")


def insert_before_its_miss():
    # The end counts balance (one miss, one insert); the order does not.
    return request(
        tc.Stream(),
        EventKind.SVC_CACHE_INSERT,
        EventKind.SVC_CACHE_MISS,
        EventKind.SVC_REQUEST_COMPLETED,
    )


def cacheable_request_never_looked_up():
    return request(tc.Stream(), EventKind.SVC_REQUEST_COMPLETED)


def empty_batch():
    return tc.Stream().emit(EventKind.SVC_BATCH_EXECUTED, size=0)


# -- worker supervision: a pid crashes at most once per life ------------------
def crashed(s, pid, **call):
    return s.emit(
        EventKind.SUP_WORKER_CRASH_DETECTED, pid=pid, pool="", exitcode=86, **call
    )


def crash_respawn_crash(respawned):
    """pid 41 crashes, pid *respawned* is forked, pid 41 crashes again."""
    s = crashed(tc.Stream(), 41)
    s.emit(EventKind.SUP_WORKER_RESPAWNED, pid=respawned, pool="")
    return crashed(s, 41)


def pid_crashed_twice():
    # The replacement is another pid: 41 never came back to life.
    return crash_respawn_crash(42)


def pid_reused_after_respawn():
    # The OS handed the dead worker's pid to its replacement.
    return crash_respawn_crash(41)


def crash_victim_failed_without_cause():
    # A victim's failure that names no cause is not a worker death.
    return tc.crash_stream(
        (EventKind.SUP_CALL_FAILED, {"op": "knn"}),
        (EventKind.SUP_CALL_RETRY, {"attempt": 1, "delay_s": 0.0}),
    )


def crash_naming_no_call():
    # An idle worker died: the crash names no call, and no call is owed.
    s = crashed(tc.Stream(), 41)
    return s.emit(EventKind.SUP_WORKER_RESPAWNED, pid=42, pool="")


ROWS = [
    # The streams whose hand-written copy is deleted: the spec alone.
    (remote_fetch_from_wrong_owner, DIRECTORY),
    (remote_fetch_from_self, DIRECTORY),
    (remote_fetch_of_unowned_page, DIRECTORY),
    (conflicting_registration, DIRECTORY),
    (foreign_deregistration, DIRECTORY),
    (double_completion_of_one_task, LEASE),
    (one_lease_completed_twice, LEASE),
    (completion_naming_another_lease, LEASE),
    (unrequeued_orphan, LEASE),
    (requeue_without_expiry, LEASE),
    (dup_drop_without_first_copy, LEASE),
    (double_done, SETTLEMENT),
    (unsettled_subrequest, SETTLEMENT),
    (failed_after_done, SETTLEMENT),
    (rc.leaked_lease, LEASE),
    (rc.renew_of_expired_lease, LEASE),
    (tc.stolen_pair_enqueued_off_its_thief, PAIRS),
    (tc.pair_stolen_twice_before_arriving, PAIRS),
    (tc.pair_lost_in_transit, PAIRS),
    (tc.self_steal, PAIRS),
    (tc.pair_executed_twice, PAIRS),
    (tc.unfinished_pair, PAIRS),
    (tc.unexecuted_task, PAIRS),
    (tc.execution_without_dequeue, PAIRS),
    (submitted_but_neither_admitted_nor_rejected, LEDGER),
    (admitted_request_without_outcome_at_stop, LEDGER),
    (eviction_without_insert, LEDGER),
    (insert_before_its_miss, LEDGER),
    (cacheable_request_never_looked_up, LEDGER),
    (empty_batch, LEDGER),
    (tc.unclosed_fault, CALLS),
    (tc.unanswered_failure, CALLS),
    (tc.retry_without_open_failure, CALLS),
    (tc.retry_past_deadline_budget, CALLS),
    (tc.giveup_vanished, CALLS),
    (tc.crash_victim_closed_under_another_cause, CALLS),
    (tc.crash_victim_never_closed, CALLS),
    (crash_victim_failed_without_cause, CALLS),
    (pid_crashed_twice, PROCESSES),
    # Rules an automaton cannot say: exactly their class.
    (rc.undetected_kill, RECOVERY),
    (rc.run_end_row_mismatch, RECOVERY),
    (sc.fanout_narrower_than_geometry, SHARD),
    (sc.fanout_wider_than_geometry, SHARD),
    (sc.send_outside_routed_set, SHARD),
    (sc.equal_distance_skip, SHARD),
    (sc.knn_candidate_neither_queried_nor_skipped, SHARD),
    (sc.join_with_duplicates, SHARD),
    (sc.join_rows_not_conserved, SHARD),
    (sc.window_merge_inventing_rows, SHARD),
    (tc.steal_with_reassignment_off, STEAL),
    (tc.steal_below_the_task_level_under_root, STEAL),
    (tc.grant_overcounting_its_takes, STEAL),
    (tc.phantom_lru_hit, BUFFER),
    (tc.phantom_evict, BUFFER),
    (second_copy_in_global_buffer, BUFFER),
    # Lawful streams: nothing.
    (tc.lawful_buffer_traffic, LAWFUL),
    (tc.path_buffer_hit, LAWFUL),
    (second_copy_in_local_buffers, LAWFUL),
    (tc.healthy_run, LAWFUL),
    (tc.fault_closed_by_ok, LAWFUL),
    (tc.failed_then_retried, LAWFUL),
    (tc.giveup_surfaced_as_error, LAWFUL),
    (tc.crash_victim_worker_died, LAWFUL),
    (tc.crash_victim_abandoned, LAWFUL),
    (pid_reused_after_respawn, LAWFUL),
    (crash_naming_no_call, LAWFUL),
    (rc.lawful_stream, LAWFUL),
    (rc.dup_drop_after_commit, LAWFUL),
    (sc.window_fanout_settles, LAWFUL),
    (sc.knn_with_lawful_skip, LAWFUL),
    (sc.failover_then_success, LAWFUL),
    (sc.join_disjoint_merge, LAWFUL),
    (tc.lawful_pair, LAWFUL),
    (tc.lawful_steal, LAWFUL),
    (lawful_service_ledger, LAWFUL),
]


@pytest.mark.parametrize(
    "build, fails", ROWS, ids=[build.__name__ for build, _ in ROWS]
)
def test_one_home(build, fails):
    verdicts = run_checkers(
        build().events,
        [
            BufferCoherenceChecker(),
            RecoveryAccountingChecker(),
            ShardAccountingChecker(),
            StealSoundnessChecker(),
            *conformance_checkers(),
        ],
    )
    failed = {v.checker: v.violations for v in verdicts if not v.ok}
    assert set(failed) == fails, failed
