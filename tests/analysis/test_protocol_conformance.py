"""Spec-compiled conformance monitors: clean streams pass, planted
protocol violations are flagged, and the monitors ride in the standard
checker sets."""

import multiprocessing

import pytest

from repro.analysis.protocol import (
    ProtocolConformanceChecker,
    conformance_checkers,
    get_spec,
)
from repro.trace.checkers import default_checkers, run_checkers
from repro.trace.events import EventKind, TraceEvent


def ev(seq, kind, proc=-1, **data):
    return TraceEvent(seq, seq * 0.001, kind, proc, data)


def replay(spec_name, events):
    checker = ProtocolConformanceChecker(get_spec(spec_name))
    for event in events:
        checker.handle(event)
    return checker.finish()


class TestRegistry:
    def test_one_monitor_per_spec(self):
        checkers = conformance_checkers()
        names = {c.name for c in checkers}
        assert names == {
            "protocol:lease",
            "protocol:shard-settlement",
            "protocol:buffer-directory",
            "protocol:pair-lifecycle",
            "protocol:service-ledger",
            "protocol:worker-call",
            "protocol:worker-process",
        }

    def test_monitors_ride_in_default_checker_set(self):
        names = {c.name for c in default_checkers()}
        assert "protocol:shard-settlement" in names
        assert "protocol:buffer-directory" in names

    def test_vacuous_on_foreign_streams(self):
        # A stream with none of the spec's events yields a clean verdict
        # (this is what lets every monitor ride on every run).
        verdict = replay(
            "lease", [ev(0, EventKind.BUFFER_INSERT, 0, page=1)]
        )
        assert verdict.ok


class TestSettlement:
    def test_clean_fanout_passes(self):
        verdict = replay("shard-settlement", [
            ev(0, EventKind.SHD_SUBREQUEST_SENT, req=1, shard=0),
            ev(1, EventKind.SHD_SUBREQUEST_SENT, req=1, shard=1),
            ev(2, EventKind.SHD_FAILOVER, req=1, shard=1),
            ev(3, EventKind.SHD_SUBREQUEST_SENT, req=1, shard=1),
            ev(4, EventKind.SHD_SUBREQUEST_DONE, req=1, shard=0),
            ev(5, EventKind.SHD_SUBREQUEST_DONE, req=1, shard=1),
        ])
        assert verdict.ok, verdict.violations
        assert verdict.stats["instances"] == 2

    def test_failed_without_sent_is_flagged(self):
        verdict = replay("shard-settlement", [
            ev(0, EventKind.SHD_SUBREQUEST_FAILED, req=1, shard=0,
               error="deadline"),
        ])
        assert not verdict.ok
        assert "no transition enabled" in verdict.violations[0]

    def test_failed_after_unhonoured_failover_is_flagged(self):
        # FAILOVER promises a resend; settling FAILED instead breaks the
        # promise (give_up fires only from inflight, not retry_pending).
        verdict = replay("shard-settlement", [
            ev(0, EventKind.SHD_SUBREQUEST_SENT, req=1, shard=0),
            ev(1, EventKind.SHD_FAILOVER, req=1, shard=0),
            ev(2, EventKind.SHD_SUBREQUEST_FAILED, req=1, shard=0,
               error="crash"),
        ])
        assert not verdict.ok
        assert "retry_pending" in verdict.violations[0]

    def test_unsettled_sent_is_flagged_at_end(self):
        verdict = replay("shard-settlement", [
            ev(0, EventKind.SHD_SUBREQUEST_SENT, req=1, shard=0),
        ])
        assert not verdict.ok
        joined = "\n".join(verdict.violations)
        assert "non-terminal" in joined
        assert "fanout_settled" in joined


class TestLease:
    def test_clean_lifecycle_passes(self):
        verdict = replay("lease", [
            ev(0, EventKind.LSE_GRANTED, 0, task=7, lease=1),
            ev(1, EventKind.LSE_EXPIRED, 0, task=7, lease=1),
            ev(2, EventKind.LSE_REQUEUED, 0, task=7),
            ev(3, EventKind.LSE_GRANTED, 1, task=7, lease=2),
            ev(4, EventKind.LSE_COMPLETED, 1, task=7, lease=2),
        ])
        assert verdict.ok, verdict.violations

    def test_double_completion_is_flagged(self):
        verdict = replay("lease", [
            ev(0, EventKind.LSE_GRANTED, 0, task=7, lease=1),
            ev(1, EventKind.LSE_COMPLETED, 0, task=7, lease=1),
            ev(2, EventKind.LSE_COMPLETED, 1, task=7, lease=1),
        ])
        assert not verdict.ok
        assert "no transition enabled" in verdict.violations[0]

    def test_expiry_without_requeue_wedges_as_orphaned(self):
        verdict = replay("lease", [
            ev(0, EventKind.LSE_GRANTED, 0, task=7, lease=1),
            ev(1, EventKind.LSE_EXPIRED, 0, task=7, lease=1),
        ])
        assert not verdict.ok
        joined = "\n".join(verdict.violations)
        assert "'orphaned'" in joined and "non-terminal" in joined


class TestDirectory:
    def test_lawful_handover_passes(self):
        verdict = replay("buffer-directory", [
            ev(0, EventKind.PAGE_REGISTERED, 0, page=3),
            ev(1, EventKind.REMOTE_FETCH, 1, page=3, owner=0),
            ev(2, EventKind.PAGE_DEREGISTERED, 0, page=3),
            ev(3, EventKind.PAGE_REGISTERED, 1, page=3),
        ])
        assert verdict.ok, verdict.violations

    def test_stale_deregister_is_flagged(self):
        verdict = replay("buffer-directory", [
            ev(0, EventKind.PAGE_REGISTERED, 0, page=3),
            ev(1, EventKind.PAGE_DEREGISTERED, 1, page=3),
        ])
        assert not verdict.ok
        assert "no transition enabled" in verdict.violations[0]

    def test_foreign_register_overwrite_is_flagged(self):
        verdict = replay("buffer-directory", [
            ev(0, EventKind.PAGE_REGISTERED, 0, page=3),
            ev(1, EventKind.PAGE_REGISTERED, 1, page=3),
        ])
        assert not verdict.ok


class TestRealSimulation:
    @pytest.mark.slow
    def test_traced_gsrr_run_conforms(self, tmp_path):
        from repro.datagen import build_tree, paper_maps
        from repro.join import (
            GSRR,
            ParallelJoinConfig,
            parallel_spatial_join,
            prepare_trees,
        )
        from repro.trace import TraceConfig
        from repro.trace.sinks import read_jsonl

        map_r, map_s = paper_maps(scale=0.02)
        tree_r, tree_s = build_tree(map_r), build_tree(map_s)
        store = prepare_trees(tree_r, tree_s)
        trace_path = tmp_path / "run.jsonl"
        parallel_spatial_join(
            tree_r,
            tree_s,
            ParallelJoinConfig(
                processors=4,
                disks=4,
                total_buffer_pages=96,
                variant=GSRR,
                trace=TraceConfig(
                    keep_events=False,
                    checkers=False,
                    jsonl_path=str(trace_path),
                ),
            ),
            page_store=store,
        )
        verdicts = run_checkers(
            read_jsonl(trace_path), conformance_checkers()
        )
        bad = [v for v in verdicts if not v.ok]
        assert bad == [], [
            (v.checker, v.violations) for v in bad
        ]
        directory = next(
            v for v in verdicts if v.checker == "protocol:buffer-directory"
        )
        assert directory.stats["instances"] > 0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="requires the fork start method",
    )
    def test_traced_fork_kill_conforms(self):
        """The lease spec replays a real run of the one recovery
        implementation: a forked join whose worker dies at task 1."""
        from repro.datagen import build_tree, paper_maps
        from repro.faults import FaultPlan
        from repro.join import prepare_trees
        from repro.join.mp import fault_tolerant_join
        from repro.recovery import RecoveryConfig
        from repro.trace import ListSink, Tracer

        map_r, map_s = paper_maps(scale=0.01)
        trees = build_tree(map_r), build_tree(map_s)
        prepare_trees(*trees)
        killed = ListSink()
        fault_tolerant_join(
            *trees,
            2,
            recovery=RecoveryConfig(lease_s=5.0, sweep_s=0.05),
            faults=FaultPlan(seed=0, kill_at_task=(1,)),
            tracer=Tracer(sinks=[killed]),
        )
        verdicts = {
            v.checker: v
            for v in run_checkers(killed.events, conformance_checkers())
        }
        lease = verdicts["protocol:lease"]
        assert lease.ok, lease.violations
        assert lease.stats["instances"] > 0
        # The kill cost one expiry and one requeue.
        assert lease.stats["expirations"] == lease.stats["requeues"] == 1
