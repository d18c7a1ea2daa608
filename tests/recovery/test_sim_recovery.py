"""Recoverable simulated joins: leases on, processors killed mid-join,
orphans requeued in-run, and whole-run resume from the durable journal."""

import pytest

from repro.datagen import build_tree, paper_maps
from repro.faults import FaultPlan
from repro.join import (
    GD,
    GSRR,
    LSR,
    ParallelJoinConfig,
    ReassignLevel,
    ReassignmentPolicy,
    parallel_spatial_join,
    prepare_trees,
    sequential_join,
)
from repro.recovery import RecoveryConfig
from repro.trace import TraceConfig

SCALE = 0.02
PROCS = 4


@pytest.fixture(scope="module")
def workload():
    m1, m2 = paper_maps(scale=SCALE)
    tree_r, tree_s = build_tree(m1), build_tree(m2)
    page_store = prepare_trees(tree_r, tree_s)
    expected = sequential_join(tree_r, tree_s).pair_set()
    return tree_r, tree_s, page_store, expected


def run(workload, **kwargs):
    tree_r, tree_s, page_store, _ = workload
    kwargs.setdefault("processors", PROCS)
    kwargs.setdefault("trace", TraceConfig())
    config = ParallelJoinConfig(**kwargs)
    return parallel_spatial_join(tree_r, tree_s, config, page_store=page_store)


def assert_lawful(result):
    result.trace.verify()
    verdict = result.trace.verdict("recovery-accounting")
    assert verdict.ok, verdict.violations
    return verdict


class TestHealthyRecoveryRuns:
    @pytest.mark.parametrize("variant", [LSR, GSRR, GD], ids=lambda v: v.short_name)
    def test_leases_do_not_change_the_answer(self, workload, variant):
        result = run(workload, variant=variant, recovery=RecoveryConfig())
        assert result.pair_set() == workload[3]
        assert result.recovery["complete"]
        assert result.recovery["orphans_requeued"] == 0
        assert result.recovery["expired"] == 0
        assert_lawful(result)

    def test_recovery_off_reports_none(self, workload):
        result = run(workload)
        assert result.recovery is None
        assert result.replayed_pairs == []


class TestInRunOrphanRecovery:
    @pytest.mark.parametrize("variant", [LSR, GSRR, GD], ids=lambda v: v.short_name)
    def test_partial_kills_recover_without_resume(self, workload, variant):
        result = run(
            workload,
            variant=variant,
            recovery=RecoveryConfig(lease_s=0.05, heartbeat_s=0.01, sweep_s=0.01),
            faults=FaultPlan(
                seed=7, kill_processor_at_event=((1, 3), (2, 5))
            ),
            reassignment=ReassignmentPolicy(level=ReassignLevel.ALL),
        )
        assert result.pair_set() == workload[3]
        assert result.recovery["complete"]
        assert result.recovery["orphans_requeued"] > 0
        assert result.recovery["expired"] > 0
        verdict = assert_lawful(result)
        assert verdict.stats["task_kills"] == 2
        lease = result.trace.verdict("protocol:lease")
        assert lease.stats["requeues"] == result.recovery["orphans_requeued"]

    def test_probabilistic_kills_never_lose_or_duplicate_rows(self, workload):
        result = run(
            workload,
            variant=GD,
            recovery=RecoveryConfig(lease_s=0.05, heartbeat_s=0.01, sweep_s=0.01),
            faults=FaultPlan(seed=3, task_kill_p=0.3),
        )
        # Kills may take out every processor — then the run is lawfully
        # incomplete; otherwise the answer must be exact either way.
        if result.recovery["complete"]:
            assert result.pair_set() == workload[3]
        else:
            assert result.pair_set() <= workload[3]
        assert_lawful(result)


class TestJournalResume:
    def test_killing_every_processor_then_resume_is_exactly_once(
        self, workload, tmp_path
    ):
        journal = str(tmp_path / "sim.jnl")
        recovery = RecoveryConfig(
            lease_s=0.05, heartbeat_s=0.01, sweep_s=0.01, journal_path=journal
        )
        kills = tuple((p, 2) for p in range(PROCS))
        crashed = run(
            workload,
            recovery=recovery,
            faults=FaultPlan(seed=5, kill_processor_at_event=kills),
        )
        assert not crashed.recovery["complete"]
        assert crashed.recovery["tasks_committed"] < crashed.tasks_created
        # Even the incomplete run's trace must be lawful: every grant
        # closed, every orphan requeued, no rows double-counted.
        assert_lawful(crashed)

        resumed = run(workload, recovery=recovery)
        assert resumed.recovery["complete"]
        assert resumed.pair_set() == workload[3]
        # Committed tasks came back via journal replay, not re-execution.
        assert (
            resumed.recovery["tasks_replayed"]
            == crashed.recovery["tasks_committed"]
        )
        assert set(resumed.replayed_pairs) <= workload[3]
        verdict = assert_lawful(resumed)
        assert verdict.stats["replayed"] == resumed.recovery["tasks_replayed"]

    def test_resume_of_a_complete_run_replays_everything(
        self, workload, tmp_path
    ):
        journal = str(tmp_path / "sim.jnl")
        recovery = RecoveryConfig(journal_path=journal)
        first = run(workload, recovery=recovery)
        assert first.recovery["complete"]
        again = run(workload, recovery=recovery)
        assert again.recovery["tasks_replayed"] == first.tasks_created
        assert again.recovery["tasks_committed"] == 0
        assert again.pair_set() == workload[3]
        assert_lawful(again)

    def test_mismatched_trees_are_rejected(self, workload, tmp_path):
        journal = str(tmp_path / "sim.jnl")
        recovery = RecoveryConfig(journal_path=journal)
        run(workload, recovery=recovery)
        m1, m2 = paper_maps(scale=0.01)
        other_r, other_s = build_tree(m1), build_tree(m2)
        page_store = prepare_trees(other_r, other_s)
        with pytest.raises(ValueError, match="journal"):
            parallel_spatial_join(
                other_r,
                other_s,
                ParallelJoinConfig(processors=PROCS, recovery=recovery),
                page_store=page_store,
            )
