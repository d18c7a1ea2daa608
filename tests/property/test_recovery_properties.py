"""Property-based crash/resume testing of the recoverable join.

Hypothesis draws a kill schedule, a chunk size and an optional dying
parent against the forked driver (:func:`repro.join.mp.fault_tolerant_join`)
on both index backends; the property is the recovery layer's whole
contract: every attempt's trace is lawful, and the killed-then-resumed
result is the sequential oracle's multiset — every pair exactly once, no
matter where the kills landed.
"""

import multiprocessing
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import build_tree, paper_maps
from repro.faults import FaultPlan
from repro.join import prepare_trees, sequential_join
from repro.join import mp as mp_module
from repro.join.mp import fault_tolerant_join
from repro.recovery import JoinInterrupted, RecoveryConfig
from repro.rtree import build_flat_tree
from repro.trace import ListSink, Tracer, run_checkers

SCALE = 0.01

_WORKLOAD = None


def workload():
    """The node trees and the oracle's sorted pairs, built once."""
    global _WORKLOAD
    if _WORKLOAD is None:
        m1, m2 = paper_maps(scale=SCALE)
        tree_r, tree_s = build_tree(m1), build_tree(m2)
        prepare_trees(tree_r, tree_s)
        expected = sorted(sequential_join(tree_r, tree_s).pair_set())
        _WORKLOAD = (tree_r, tree_s, expected)
    return _WORKLOAD


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
                    sweep_s=0.02,
                    journal_path=journal,
                    stop_after_commits=stop_after,
                ),
                faults=faults,
                tracer=Tracer(sinks=[sink]),
            )
        except JoinInterrupted:
            outcome = (None, None)
    for verdict in run_checkers(sink.events):
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
        expected = workload()[2]
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
