"""The fork-path fault-tolerant join: chunked leases and redispatch after
worker death.

Every class runs twice: as written over the pointer backend, and again
over the packed backend through its ``...Flat`` subclass, which only
swaps the ``build`` fixture — the driver is the same, so the contract is.
"""

import multiprocessing
import time

import pytest

from repro.datagen import build_tree, paper_maps
from repro.faults import FaultPlan
from repro.join import sequential_join
from repro.join import mp as mp_module
from repro.join.mp import fault_tolerant_join, plan_join
from repro.join.parallel import prepare_trees
from repro.recovery import RecoveryConfig
from repro.rtree import FlatRTree, RStarTree, build_flat_tree
from repro.trace import EventKind, ListSink, Tracer, run_checkers

FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not FORK, reason="requires the fork start method")

FAST = RecoveryConfig(lease_s=5.0, sweep_s=0.05)


def build_node(m1, m2):
    tree_r, tree_s = build_tree(m1), build_tree(m2)
    prepare_trees(tree_r, tree_s)
    return tree_r, tree_s


def build_flat(m1, m2):
    return build_flat_tree(m1), build_flat_tree(m2)


class Backend:
    """Fixtures of one backend; the builders are the only variable."""

    build = staticmethod(build_node)
    empty_tree = RStarTree

    @pytest.fixture(scope="class")
    def trees(self):
        return self.build(*paper_maps(scale=0.01))

    @pytest.fixture(scope="class")
    def expected(self, trees):
        return sequential_join(*trees).pair_set()


class FlatBackend(Backend):
    build = staticmethod(build_flat)
    empty_tree = staticmethod(lambda: FlatRTree.build(()))


class _SlowPlan:
    """A join plan whose every slice first idles for ``IDLE_S`` in
    ``BEATS`` beats — a small join that outlasts a short lease."""

    IDLE_S = 0.2
    BEATS = 5

    def __init__(self, plan):
        self.plan = plan

    def __len__(self):
        return len(self.plan)

    def run(self, start, stop, beat=None):
        for _ in range(self.BEATS):
            time.sleep(self.IDLE_S / self.BEATS)
            if beat is not None:  # None: run inline in the parent
                beat()
        return self.plan.run(start, stop, beat)


class _BeatingPlan(_SlowPlan):
    """One slice runs twice a lease, beating every 2 % of it."""

    IDLE_S = 0.5
    BEATS = 25


def assert_lawful(sink):
    for verdict in run_checkers(sink.events):
        assert verdict.ok, (verdict.checker, verdict.violations)


def assert_every_kill_was_an_event(sink, stats):
    """Each kill is one death, reported as it happens: its lease expires
    as ``died`` — never by running out its ``lease_s`` (``deadline``) —
    and its chunk is requeued once."""
    reasons = [
        event.data["reason"]
        for event in sink.events
        if event.kind is EventKind.LSE_EXPIRED
    ]
    kills = stats["fault_counts"]["task_kills"]
    assert reasons == ["died"] * kills
    assert stats["expired"] == stats["redispatches"] == kills


class TestHealthyRuns(Backend):
    @needs_fork
    def test_matches_sequential(self, trees, expected):
        pairs, stats = fault_tolerant_join(*trees, 2, recovery=FAST)
        assert set(pairs) == expected
        assert len(pairs) == len(set(pairs))
        assert stats["redispatches"] == 0
        assert stats["tasks_committed"] == stats["chunks"]

    @needs_fork
    def test_join_longer_than_its_lease_expires_nothing(
        self, trees, expected, monkeypatch
    ):
        """Regression: every chunk's lease clock started when the chunk
        was queued into the pool, so a healthy join that outlasted
        ``lease_s`` expired its own waiting tail, redispatched it and
        finally ran it inline.  The clock starts when a worker starts the
        chunk, and a running chunk keeps its lease by beating."""
        monkeypatch.setattr(
            mp_module, "plan_join", lambda *a: _SlowPlan(plan_join(*a))
        )
        pairs, stats = fault_tolerant_join(
            *trees,
            2,
            recovery=RecoveryConfig(
                lease_s=1.5 * _SlowPlan.IDLE_S, sweep_s=0.02
            ),
        )
        assert set(pairs) == expected
        # 2 workers, two thirds of a lease per chunk: from the third
        # round on a chunk has waited longer than its lease to start.
        assert stats["chunks"] >= 6
        assert stats["expired"] == 0
        assert stats["redispatches"] == 0 and stats["inline_runs"] == 0

    @needs_fork
    def test_a_beating_chunk_outlives_its_lease(
        self, trees, expected, monkeypatch
    ):
        """A moved progress counter renews the lease: one chunk that runs
        twice ``lease_s`` but beats keeps its lease and its worker."""
        monkeypatch.setattr(
            mp_module, "plan_join", lambda *a: _BeatingPlan(plan_join(*a))
        )
        monkeypatch.setattr(mp_module, "_chunk_tasks", lambda tasks, _: tasks)
        sink = ListSink()
        pairs, stats = fault_tolerant_join(
            *trees,
            2,
            recovery=RecoveryConfig(lease_s=0.25, sweep_s=0.02),
            tracer=Tracer(sinks=[sink]),
        )
        assert set(pairs) == expected
        assert (stats["chunks"], stats["expired"], stats["inline_runs"]) == (
            1, 0, 0
        )
        assert any(e.kind is EventKind.LSE_RENEWED for e in sink.events)
        assert_lawful(sink)

    def test_serial_fallback_matches(self, trees, expected):
        pairs, stats = fault_tolerant_join(*trees, 1, recovery=FAST)
        assert set(pairs) == expected
        assert stats["tasks_committed"] == stats["chunks"]

    def test_empty_trees(self):
        empty = self.empty_tree()
        pairs, stats = fault_tolerant_join(empty, empty, 2, recovery=FAST)
        assert pairs == [] and stats["chunks"] == 0


class TestKilledWorkers(Backend):
    @needs_fork
    def test_targeted_kills_are_redispatched(self, trees, expected):
        sink = ListSink()
        pairs, stats = fault_tolerant_join(
            *trees,
            2,
            recovery=FAST,
            faults=FaultPlan(seed=1, kill_at_task=(0, 7)),
            tracer=Tracer(sinks=[sink]),
        )
        assert set(pairs) == expected
        assert len(pairs) == len(set(pairs))
        assert stats["redispatches"] >= 1
        assert stats["expired"] >= 1
        assert stats["fault_counts"]["task_kills"] >= 1
        assert_every_kill_was_an_event(sink, stats)
        assert_lawful(sink)

    @needs_fork
    def test_probabilistic_kills_still_exactly_once(self, trees, expected):
        sink = ListSink()
        pairs, stats = fault_tolerant_join(
            *trees,
            2,
            recovery=FAST,
            faults=FaultPlan(seed=9, task_kill_p=0.4),
            tracer=Tracer(sinks=[sink]),
        )
        assert set(pairs) == expected
        assert len(pairs) == len(set(pairs))
        assert stats["fault_counts"]["task_kills"] >= 1
        assert_every_kill_was_an_event(sink, stats)
        assert_lawful(sink)


class TestHealthyRunsFlat(FlatBackend, TestHealthyRuns):
    pass


class TestKilledWorkersFlat(FlatBackend, TestKilledWorkers):
    @needs_fork
    def test_kill_costs_one_chunk_and_never_materialises_a_node_tree(
        self, monkeypatch
    ):
        """A vectorised slice has no per-task loop, yet a parent-computed
        kill offset still costs exactly one chunk redispatch."""
        trees = self.build(*paper_maps(scale=0.01))
        sink = ListSink()
        monkeypatch.setattr(mp_module, "_chunk_tasks", lambda tasks, processes: 2)
        pairs, stats = fault_tolerant_join(
            *trees,
            2,
            recovery=RecoveryConfig(lease_s=5.0, sweep_s=0.05),
            faults=FaultPlan(seed=0, kill_at_task=(3,)),
            tracer=Tracer(sinks=[sink]),
        )
        assert sorted(pairs) == sorted(sequential_join(*trees).pair_set())
        assert stats["fault_counts"]["task_kills"] == 1
        assert stats["redispatches"] == 1 and stats["inline_runs"] == 0
        assert_every_kill_was_an_event(sink, stats)
        assert_lawful(sink)

