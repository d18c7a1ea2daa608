"""Differential suite: every parallel join variant against the sequential
BKS93 join, with the trace invariant checkers watching each run.

The grid covers all three hardware/software variants (LSR with local
buffers, GSRR and GD with the SVM global buffer) crossed with every
reassignment level and victim-selection rule.  Each cell must (a) produce
exactly the sequential result set and (b) satisfy every invariant
checker and spec monitor of the default set.

A second part deliberately injects a double-execution bug (a steal that
leaves the stolen pairs behind at the victim) and asserts that the
pair-lifecycle monitor catches it — the suite tests the testers.
"""

import pytest

from repro.datagen import build_tree, paper_maps
from repro.join import (
    GD,
    GSRR,
    LSR,
    ParallelJoinConfig,
    ReassignLevel,
    ReassignmentPolicy,
    VictimChoice,
    parallel_spatial_join,
    prepare_trees,
    sequential_join,
)
from repro.join.reassign import Workload
from repro.trace import EventKind, InvariantViolation, TraceConfig

SCALE = 0.02


@pytest.fixture(scope="module")
def workload():
    m1, m2 = paper_maps(scale=SCALE)
    tree_r, tree_s = build_tree(m1), build_tree(m2)
    page_store = prepare_trees(tree_r, tree_s)
    expected = sequential_join(tree_r, tree_s).pair_set()
    return tree_r, tree_s, page_store, expected


def run_traced(workload, **kwargs):
    tree_r, tree_s, page_store, _ = workload
    kwargs.setdefault("trace", TraceConfig())
    config = ParallelJoinConfig(**kwargs)
    return parallel_spatial_join(tree_r, tree_s, config, page_store=page_store)


GRID = [
    pytest.param(
        variant,
        level,
        victim,
        id=f"{variant.short_name}-{level.value}-{victim.value.replace(' ', '-')}",
    )
    for variant in (LSR, GSRR, GD)
    for level in ReassignLevel
    for victim in VictimChoice
]


@pytest.mark.slow
class TestFullVariantGrid:
    @pytest.mark.parametrize("variant,level,victim", GRID)
    def test_matches_sequential_with_invariants(
        self, workload, variant, level, victim
    ):
        result = run_traced(
            workload,
            processors=4,
            disks=4,
            total_buffer_pages=160,
            variant=variant,
            reassignment=ReassignmentPolicy(level=level, victim=victim),
        )
        assert result.pair_set() == workload[3]
        trace = result.trace
        assert trace is not None
        trace.verify()  # raises InvariantViolation on any checker failure
        assert trace.ok
        assert len(trace.verdicts) == 13
        # The pair life cycle saw every executed pair.
        pairs = trace.verdict("protocol:pair-lifecycle").stats["instances"]
        assert pairs == trace.counts()[EventKind.EXEC_START] > 0
        # The trace agrees with the result's own accounting.
        counts = trace.counts()
        assert counts[EventKind.EXEC_START] == counts[EventKind.EXEC_END]
        assert counts[EventKind.DISK_COMPLETE] == result.disk_accesses
        assert counts[EventKind.TASK_CREATED] == result.tasks_created


class TestTraceHandleContents:
    def test_steal_events_recorded_when_reassigning(self, workload):
        result = run_traced(
            workload,
            processors=8,
            disks=8,
            total_buffer_pages=320,
            variant=LSR,
            reassignment=ReassignmentPolicy(level=ReassignLevel.ALL),
        )
        assert result.reassignments > 0
        counts = result.trace.counts()
        assert counts[EventKind.STEAL_GRANTED] == result.reassignments
        assert counts[EventKind.STEAL_TAKE] >= result.reassignments
        timeline = result.trace.steal_timeline(limit=10)
        assert "steal_granted" in timeline or "steal_take" in timeline

    def test_trace_absent_without_config(self, workload):
        tree_r, tree_s, page_store, _ = workload
        result = parallel_spatial_join(
            tree_r,
            tree_s,
            ParallelJoinConfig(processors=4, disks=4, total_buffer_pages=160),
            page_store=page_store,
        )
        assert result.trace is None

    def test_jsonl_round_trip_of_a_real_run(self, workload, tmp_path):
        from repro.trace import read_jsonl

        path = tmp_path / "run.jsonl"
        result = run_traced(
            workload,
            processors=4,
            disks=4,
            total_buffer_pages=160,
            trace=TraceConfig(jsonl_path=str(path)),
        )
        replayed = read_jsonl(path)
        assert replayed == result.trace.events
        assert len(replayed) == result.trace.events_emitted


class TestCheckersCatchInjectedBugs:
    def test_double_execution_is_caught(self, workload, monkeypatch):
        # Inject the bug: a steal that hands out the pairs *and* leaves
        # them behind at the victim, so both processors execute them.
        original = Workload.steal_from

        def leaky_steal(self, level, thief=-1):
            stolen = original(self, level, thief=thief)
            for node_r, node_s in stolen:
                self.push_pair(level, node_r, node_s)
            return stolen

        monkeypatch.setattr(Workload, "steal_from", leaky_steal)
        result = run_traced(
            workload,
            processors=8,
            disks=8,
            total_buffer_pages=320,
            variant=LSR,
            reassignment=ReassignmentPolicy(level=ReassignLevel.ALL),
        )
        assert result.reassignments > 0, "bug never triggered: no steals"
        trace = result.trace
        assert not trace.verdict("protocol:pair-lifecycle").ok
        assert not trace.ok
        with pytest.raises(InvariantViolation, match="protocol:pair-lifecycle"):
            trace.verify()

    def test_lost_work_is_caught(self, workload, monkeypatch):
        # Inject the complementary bug: stolen pairs evaporate in transit.
        original = Workload.steal_from
        dropped = []

        def lossy_steal(self, level, thief=-1):
            stolen = original(self, level, thief=thief)
            dropped.append(stolen[-1])  # one pair falls on the floor
            return stolen[:-1]

        monkeypatch.setattr(Workload, "steal_from", lossy_steal)
        result = run_traced(
            workload,
            processors=8,
            disks=8,
            total_buffer_pages=320,
            variant=LSR,
            reassignment=ReassignmentPolicy(level=ReassignLevel.ALL),
        )
        assert dropped, "bug never triggered: no steals"
        trace = result.trace
        assert not trace.ok
        failed = {verdict.checker for verdict in trace.failed}
        # The dropped pair never arrives at its thief: it ends in transit.
        assert "protocol:pair-lifecycle" in failed
