"""Property-based crash/resume testing of the recoverable joins.

Hypothesis draws a crash schedule (which processors die, and at which of
their task starts), an assignment variant and a reassignment policy; the
property is the recovery layer's whole contract: the crashed run's trace
is lawful, and the crashed-then-resumed result is the sequential oracle's
multiset — every pair exactly once, no matter where the kills landed.

The same contract is then drawn against the forked driver
(:func:`repro.join.mp.fault_tolerant_join`) on both index backends: task
kills, an optionally dying parent, then a resume from the journal.
"""

import multiprocessing
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.join import mp as mp_module
from repro.join.mp import fault_tolerant_join
from repro.recovery import JoinInterrupted, RecoveryConfig
from repro.rtree import build_flat_tree
from repro.trace import (
    ListSink,
    TraceConfig,
    Tracer,
    recovery_checkers,
    run_checkers,
)

PROCS = 3
SCALE = 0.01

_WORKLOAD = None


def workload():
    global _WORKLOAD
    if _WORKLOAD is None:
        m1, m2 = paper_maps(scale=SCALE)
        tree_r, tree_s = build_tree(m1), build_tree(m2)
        page_store = prepare_trees(tree_r, tree_s)
        expected = sorted(sequential_join(tree_r, tree_s).pair_set())
        _WORKLOAD = (tree_r, tree_s, page_store, expected)
    return _WORKLOAD


def run(journal_path, variant, policy, faults=None):
    tree_r, tree_s, page_store, _ = workload()
    config = ParallelJoinConfig(
        processors=PROCS,
        variant=variant,
        reassignment=policy,
        faults=faults,
        trace=TraceConfig(),
        recovery=RecoveryConfig(
            lease_s=0.05,
            heartbeat_s=0.01,
            sweep_s=0.01,
            journal_path=journal_path,
        ),
    )
    return parallel_spatial_join(tree_r, tree_s, config, page_store=page_store)


def multiset(result):
    pairs = [p for proc in result.pairs_by_processor for p in proc]
    pairs.extend(result.replayed_pairs)
    return sorted(pairs)


def assert_lawful(result):
    result.trace.verify()
    verdict = result.trace.verdict("recovery-accounting")
    assert verdict.ok, verdict.violations


kill_schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=PROCS - 1),
        st.integers(min_value=1, max_value=6),
    ),
    min_size=0,
    max_size=PROCS,
    unique=True,
)
variants = st.sampled_from([LSR, GSRR, GD])
policies = st.sampled_from([ReassignLevel.NONE, ReassignLevel.ALL])


class TestCrashResumeProperty:
    @given(
        kills=kill_schedules,
        variant=variants,
        level=policies,
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_crashed_then_resumed_equals_sequential_oracle(
        self, kills, variant, level, seed
    ):
        expected = workload()[3]
        policy = ReassignmentPolicy(level=level)
        faults = FaultPlan(seed=seed, kill_processor_at_event=tuple(kills))
        with tempfile.TemporaryDirectory() as tmp:
            journal = f"{tmp}/join.jnl"
            crashed = run(journal, variant, policy, faults=faults)
            assert_lawful(crashed)
            final = crashed
            if not crashed.recovery["complete"]:
                resumed = run(journal, variant, policy)
                assert_lawful(resumed)
                assert resumed.recovery["complete"]
                assert (
                    resumed.recovery["tasks_replayed"]
                    == crashed.recovery["tasks_committed"]
                )
                final = resumed
            assert multiset(final) == expected

    @given(
        variant=variants,
        seed=st.integers(min_value=0, max_value=10_000),
        kill_p=st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=8, deadline=None)
    def test_probabilistic_kills_converge_under_repeated_resume(
        self, variant, seed, kill_p
    ):
        # task_kill_p may take out every processor (lawfully incomplete);
        # a fault-free resume must then finish from the journal alone.
        expected = workload()[3]
        policy = ReassignmentPolicy(level=ReassignLevel.NONE)
        faults = FaultPlan(seed=seed, task_kill_p=kill_p)
        with tempfile.TemporaryDirectory() as tmp:
            journal = f"{tmp}/join.jnl"
            result = run(journal, variant, policy, faults=faults)
            assert_lawful(result)
            if not result.recovery["complete"]:
                result = run(journal, variant, policy)
                assert_lawful(result)
                assert result.recovery["complete"]
            assert multiset(result) == expected


# -- the forked driver: one engine, both backends -----------------------------

_FORK_WORKLOADS = {}


def fork_workload(backend):
    if backend not in _FORK_WORKLOADS:
        m1, m2 = paper_maps(scale=SCALE)
        if backend == "flat":
            trees = (build_flat_tree(m1), build_flat_tree(m2))
        else:
            trees = workload()[:2]
        _FORK_WORKLOADS[backend] = trees
    return _FORK_WORKLOADS[backend]


def fork_run(backend, journal, chunk_tasks, faults=None, stop_after=None):
    """One traced attempt, *chunk_tasks* tasks a chunk; returns ``(pairs
    or None if interrupted, stats)`` after replaying the trace through the
    recovery checkers."""
    sink = ListSink()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mp_module, "_chunk_tasks", lambda tasks, processes: chunk_tasks)
        try:
            outcome = fault_tolerant_join(
                *fork_workload(backend),
                2,
                recovery=RecoveryConfig(
                    lease_s=0.5,
                    heartbeat_s=0.1,
                    sweep_s=0.02,
                    journal_path=journal,
                    stop_after_commits=stop_after,
                ),
                faults=faults,
                tracer=Tracer(sinks=[sink]),
            )
        except JoinInterrupted:
            outcome = (None, None)
    for verdict in run_checkers(sink.events, recovery_checkers()):
        assert verdict.ok, (verdict.checker, verdict.violations)
    return outcome


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires the fork start method",
)
@pytest.mark.parametrize("backend", ["node", "flat"])
class TestForkCrashResumeProperty:
    @given(
        kills=st.lists(
            st.integers(min_value=0, max_value=30), max_size=3, unique=True
        ),
        chunk_tasks=st.integers(min_value=1, max_value=4),
        stop_after=st.none() | st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=6, deadline=None)
    def test_killed_interrupted_then_resumed_is_exactly_once(
        self, backend, kills, chunk_tasks, stop_after, seed
    ):
        """Task kills cost chunk redispatches, a dying parent costs a
        resume — either way the journalled result is the oracle multiset,
        on the pointer plan and on the packed plan alike."""
        expected = workload()[3]
        faults = FaultPlan(seed=seed, kill_at_task=tuple(kills))
        with tempfile.TemporaryDirectory() as tmp:
            journal = f"{tmp}/join.jnl"
            pairs, stats = fork_run(
                backend, journal, chunk_tasks, faults, stop_after
            )
            if pairs is None:
                pairs, stats = fork_run(backend, journal, chunk_tasks)
                assert stats["replayed_chunks"] >= stop_after
            assert stats["tasks_committed"] + stats["tasks_replayed"] == (
                stats["chunks"]
            )
            assert sorted(pairs) == expected
