"""Tests for the real multiprocessing filter-step backend."""

import multiprocessing
import re
import time
import warnings

import pytest

from repro.datagen import build_tree, paper_maps
from repro.geometry import PairTable
from repro.join import multiprocessing_join, sequential_join
from repro.join import mp as mp_module
from repro.join.mp import plan_join
from repro.join.parallel import prepare_trees
from repro.rtree import RStarTree


@pytest.fixture(scope="module")
def trees():
    m1, m2 = paper_maps(scale=0.01)
    tree_r, tree_s = build_tree(m1), build_tree(m2)
    prepare_trees(tree_r, tree_s)
    return tree_r, tree_s


class TestJoinSubtrees:
    def test_whole_tree_pair_equals_sequential(self, trees):
        # The node plan walks each task with sequential_join's own walk:
        # all tasks in one slice give its pairs, in its order.
        tree_r, tree_s = trees
        plan = plan_join(tree_r, tree_s, min_tasks=1)
        pairs = plan.run(0, len(plan))
        assert list(pairs) == list(sequential_join(tree_r, tree_s).pairs)


class TestMultiprocessingJoin:
    def test_single_process_fallback(self, trees):
        tree_r, tree_s = trees
        pairs = multiprocessing_join(tree_r, tree_s, processes=1)
        assert set(pairs) == sequential_join(tree_r, tree_s).pair_set()

    def test_two_processes_match_sequential(self, trees):
        tree_r, tree_s = trees
        pairs = multiprocessing_join(tree_r, tree_s, processes=2)
        assert set(pairs) == sequential_join(tree_r, tree_s).pair_set()

    def test_four_processes_match_sequential(self, trees):
        tree_r, tree_s = trees
        pairs = multiprocessing_join(tree_r, tree_s, processes=4)
        assert set(pairs) == sequential_join(tree_r, tree_s).pair_set()

    def test_no_duplicates(self, trees):
        tree_r, tree_s = trees
        pairs = multiprocessing_join(tree_r, tree_s, processes=3)
        assert len(pairs) == len(set(pairs))

    def test_empty_trees(self):
        empty = RStarTree()
        assert multiprocessing_join(empty, empty, processes=2) == []

    def test_default_process_count(self, trees):
        tree_r, tree_s = trees
        pairs = multiprocessing_join(tree_r, tree_s)
        assert set(pairs) == sequential_join(tree_r, tree_s).pair_set()


class TestJoinPlan:
    def test_node_plan_beats_on_every_node_pair(self):
        """One beat per task could not keep a lease through a task that
        outlasts ``lease_s``; the node plan beats inside the task."""
        tree_r, tree_s = (build_tree(m) for m in paper_maps(scale=0.03))
        assert tree_r.height == tree_s.height == 3  # tasks are subtrees
        plan = mp_module.plan_join(tree_r, tree_s, 4)
        beats = []
        pairs = plan.run(0, len(plan), lambda: beats.append(1))
        assert set(pairs) == sequential_join(tree_r, tree_s).pair_set()
        assert len(beats) > 10 * len(plan)
        assert plan.run(2, 2, lambda: pytest.fail("beat on an empty slice")) == []

    def test_chunks_are_delivered_as_tables(self, trees):
        """A chunk result is made a table in the worker and crosses the
        pipe as its two columns (one beat per shipped table); the driver's
        one concatenation keeps the serial row order."""
        tree_r, tree_s = trees
        serial = multiprocessing_join(tree_r, tree_s, processes=1)
        forked = multiprocessing_join(tree_r, tree_s, processes=2)
        assert type(forked) is type(serial) is PairTable
        assert forked == serial and len(serial) > 7
        progress = [0]
        chunk = mp_module._run_chunk(
            (mp_module.plan_join(tree_r, tree_s, 4), None, None),
            progress, (0, 0, 1, None),
        )
        assert type(chunk[1]) is PairTable and progress[0] >= 2


def assert_nothing_left_behind():
    assert multiprocessing.active_children() == []
    assert not hasattr(mp_module, "_WORK")


class TestForkGuard:
    def test_work_global_reset_after_pool_run(self, trees):
        """Nothing outlives the run (regression: fork-inherited state
        leak): workers get the plan as their fork argument, so there is
        no parking global to reset, and every worker is gone."""
        tree_r, tree_s = trees
        multiprocessing_join(tree_r, tree_s, processes=2)
        assert_nothing_left_behind()

    def test_spawn_only_platform_warns_and_falls_back(self, trees, monkeypatch):
        """Without fork (spawn-only platforms) the join must warn and run
        the serial path — same answers, no worker forked."""
        tree_r, tree_s = trees
        monkeypatch.setattr(
            mp_module.multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn"],
        )
        with pytest.warns(RuntimeWarning, match="fork"):
            pairs = multiprocessing_join(tree_r, tree_s, processes=4)
        assert set(pairs) == sequential_join(tree_r, tree_s).pair_set()
        assert_nothing_left_behind()

    def test_single_process_does_not_warn(self, trees):
        tree_r, tree_s = trees
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = multiprocessing_join(tree_r, tree_s, processes=1)
        assert len(pairs) > 0


def _hang_forever(*_):
    # Stands in for _run_chunk in the forked workers.
    time.sleep(600)


class TestDeadline:
    def test_hung_workers_without_deadline_are_expired_by_their_lease(
        self, trees, monkeypatch
    ):
        """Workers that never deliver must not block the caller forever:
        silent chunks lose their lease, and after ``MAX_REDISPATCH``
        strikes the parent finishes them inline — the static ``pool.map``
        path blocked forever here."""
        from repro.recovery import RecoveryConfig

        tree_r, tree_s = trees
        monkeypatch.setattr(mp_module, "_run_chunk", _hang_forever)
        monkeypatch.setattr(mp_module, "MAX_REDISPATCH", 1)
        started = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = multiprocessing_join(
                tree_r,
                tree_s,
                processes=2,
                recovery=RecoveryConfig(
                    lease_s=0.1, sweep_s=0.02
                ),
            )
        assert time.perf_counter() - started < 30
        assert set(pairs) == sequential_join(tree_r, tree_s).pair_set()
        assert len(pairs) == len(set(pairs))
        assert_nothing_left_behind()

    def test_silent_chunk_costs_its_worker_not_the_pool(
        self, trees, monkeypatch, tmp_path
    ):
        """One chunk goes silent on its first execution: its lease expires,
        the holder is killed (it never keeps its slot), and the chunk is
        re-run by a worker — nothing falls back to the inline path."""
        from repro.join.mp import fault_tolerant_join
        from repro.recovery import RecoveryConfig
        from repro.trace import EventKind, ListSink, Tracer, run_checkers

        tree_r, tree_s = trees
        run_chunk, hung_once = mp_module._run_chunk, tmp_path / "hung-once"

        def hang_chunk_1_once(work, progress, spec):
            if spec[0] == 1 and not hung_once.exists():
                hung_once.touch()
                time.sleep(600)
            return run_chunk(work, progress, spec)

        monkeypatch.setattr(mp_module, "_run_chunk", hang_chunk_1_once)
        sink = ListSink()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs, stats = fault_tolerant_join(
                tree_r,
                tree_s,
                2,
                recovery=RecoveryConfig(
                    lease_s=0.2, sweep_s=0.05
                ),
                tracer=Tracer(sinks=[sink]),
            )
        assert set(pairs) == sequential_join(tree_r, tree_s).pair_set()
        assert len(pairs) == len(set(pairs))
        assert stats["expired"] == stats["redispatches"] == 1
        assert stats["inline_runs"] == 0
        expired = [e for e in sink.events if e.kind is EventKind.LSE_EXPIRED]
        assert [(e.data["task"], e.data["reason"]) for e in expired] == [
            (1, "deadline")
        ]
        for verdict in run_checkers(sink.events):
            assert verdict.ok, (verdict.checker, verdict.violations)
        assert_nothing_left_behind()

    REFUSED = [
        ("processes", 0),
        ("processes", -2),
        ("processes", True),
        ("processes", 2.5),
        ("processes", "2"),
    ]

    @pytest.mark.parametrize(
        "setting, value", REFUSED, ids=[f"{k}={v!r}" for k, v in REFUSED]
    )
    def test_bad_deadline_or_process_count_is_refused(
        self, trees, setting, value
    ):
        """Refused at the edge, before any fork: a process count below 1
        used to run serially while a float or a string failed deep in the
        substrate."""
        tree_r, tree_s = trees
        message = "processes must be an integer >= 1, got "
        with pytest.raises(ValueError, match=message + re.escape(repr(value))):
            multiprocessing_join(
                tree_r, tree_s, **{"processes": 2, setting: value}
            )


class TestMultiprocessingRefinement:
    def test_geometry_both_or_neither(self, trees):
        tree_r, tree_s = trees
        with pytest.raises(ValueError):
            multiprocessing_join(tree_r, tree_s, processes=1, geometry_r={})

    def test_refined_answers_match_sequential_refinement(self):
        from repro.datagen import paper_maps
        from repro.join import ExactRefinement

        m1, m2 = paper_maps(scale=0.01, include_geometry=True)
        tree_r, tree_s = build_tree(m1), build_tree(m2)
        prepare_trees(tree_r, tree_s)
        geo1 = {o.oid: o.points for o in m1.objects}
        geo2 = {o.oid: o.points for o in m2.objects}
        candidates = sequential_join(tree_r, tree_s)
        expected = set(
            ExactRefinement(geo1, geo2).filter_answers(candidates.pairs)
        )
        for processes in (1, 2):
            answers = multiprocessing_join(
                tree_r, tree_s, processes=processes,
                geometry_r=geo1, geometry_s=geo2,
            )
            assert set(answers) == expected
            assert len(answers) == len(set(answers))


class TestWorkerDeathRegression:
    """A worker dying mid-range must not lose its whole static share.

    A static range assignment hands each process one contiguous task
    range; the driver leases chunk-sized pieces instead, so a death costs
    one chunk-redispatch, not a quarter of the join.
    """

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="requires the fork start method",
    )
    def test_killed_worker_loses_one_chunk_not_its_range(
        self, trees, monkeypatch
    ):
        from repro.faults import FaultPlan
        from repro.join.mp import fault_tolerant_join
        from repro.recovery import RecoveryConfig

        from repro.trace import EventKind, ListSink, Tracer

        tree_r, tree_s = trees
        expected = sequential_join(tree_r, tree_s).pair_set()
        recovery = RecoveryConfig(lease_s=5.0, sweep_s=0.05)
        monkeypatch.setattr(mp_module, "_chunk_tasks", lambda tasks, processes: 2)
        sink = ListSink()
        # Kill whichever worker starts task 4 — mid-chunk, mid-range.
        pairs, stats = fault_tolerant_join(
            tree_r,
            tree_s,
            2,
            recovery=recovery,
            faults=FaultPlan(seed=0, kill_at_task=(4,)),
            tracer=Tracer(sinks=[sink]),
        )
        assert set(pairs) == expected
        assert len(pairs) == len(set(pairs))
        # The dead worker's chunk was re-dispatched to the pool — no
        # serial fallback, and only the killed chunk was re-run.
        assert stats["inline_runs"] == 0
        assert stats["redispatches"] == 1
        assert stats["fault_counts"]["task_kills"] == 1
        assert stats["tasks_committed"] == stats["chunks"]
        # The death itself expired the lease: nobody waited lease_s out.
        assert [
            (e.data["task"], e.data["reason"])
            for e in sink.events
            if e.kind is EventKind.LSE_EXPIRED
        ] == [(2, "died")]
