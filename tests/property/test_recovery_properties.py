"""Property-based worker-death testing of the recoverable join.

Hypothesis draws a kill schedule, a set of chunks that hang once, a chunk
size and an optional short deadline against the forked driver
(:func:`repro.join.mp.fault_tolerant_join`) on both index backends; the
property is the recovery layer's whole contract: the trace is lawful,
every chunk commits exactly once, and the result is the sequential
oracle's multiset — no matter where the kills, hangs, lease expiries and
the deadline landed.
"""

import multiprocessing
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import build_tree, paper_maps
from repro.faults import FaultPlan
from repro.join import prepare_trees, sequential_join
from repro.join import mp as mp_module
from repro.join.mp import fault_tolerant_join
from repro.recovery import RecoveryConfig
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


def hang_once(chunks, marks: Path):
    """A ``_run_chunk`` whose first execution of each chunk in *chunks*
    goes silent (its lease expires and the holder is killed); the marker
    files under *marks* make "first" hold across forked workers."""
    run_chunk = mp_module._run_chunk

    def run(work, progress, spec):
        mark = marks / f"hung-{spec[0]}"
        if spec[0] in chunks and not mark.exists():
            mark.touch()
            time.sleep(600)
        return run_chunk(work, progress, spec)

    return run


def fork_run(backend, chunk_tasks, faults, hangs, timeout_s):
    """One traced join, *chunk_tasks* tasks a chunk; returns ``(pairs,
    stats)`` after replaying the trace through every checker."""
    sink = ListSink()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(mp_module, "_chunk_tasks", lambda tasks, processes: chunk_tasks)
        patch.setattr(mp_module, "_run_chunk", hang_once(hangs, Path(tmp)))
        with warnings.catch_warnings():
            # A deadline that fires warns before finishing inline.
            warnings.simplefilter("ignore", RuntimeWarning)
            outcome = fault_tolerant_join(
                *fork_workload(backend),
                2,
                timeout_s=timeout_s,
                recovery=RecoveryConfig(lease_s=0.3, sweep_s=0.02),
                faults=faults,
                tracer=Tracer(sinks=[sink]),
            )
    for verdict in run_checkers(sink.events):
        assert verdict.ok, (verdict.checker, verdict.violations)
    return outcome


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires the fork start method",
)
@pytest.mark.parametrize("backend", ["node", "flat"])
class TestForkRecoveryProperty:
    @given(
        kills=st.lists(
            st.integers(min_value=0, max_value=30), max_size=3, unique=True
        ),
        hangs=st.frozensets(st.integers(min_value=0, max_value=7), max_size=2),
        chunk_tasks=st.integers(min_value=1, max_value=4),
        timeout_s=st.none() | st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=6, deadline=None)
    def test_killed_hung_or_timed_out_is_exactly_once(
        self, backend, kills, hangs, chunk_tasks, timeout_s, seed
    ):
        """Task kills and hung chunks cost lease expiries and redispatches,
        a deadline costs an inline finish — either way every chunk commits
        once and the result is the oracle multiset, on the pointer plan and
        on the packed plan alike."""
        pairs, stats = fork_run(
            backend,
            chunk_tasks,
            FaultPlan(seed=seed, kill_at_task=tuple(kills)),
            hangs,
            timeout_s,
        )
        assert stats["tasks_committed"] == stats["chunks"]
        assert sorted(pairs) == workload()[2]
