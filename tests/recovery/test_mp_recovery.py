"""The fork-path fault-tolerant join: chunked leases, redispatch after
worker death, interrupt-then-resume through the durable journal.

Every class runs twice: as written over the pointer backend, and again
over the packed backend through its ``...Flat`` subclass, which only
swaps the ``build`` fixture — the driver is the same, so the contract is.
"""

import multiprocessing
import time

import pytest

from repro.datagen import build_tree, paper_maps
from repro.faults import FaultPlan
from repro.geometry import PairTable
from repro.join import sequential_join
from repro.join import mp as mp_module
from repro.join.mp import fault_tolerant_join, plan_join
from repro.join.parallel import prepare_trees
from repro.recovery import (
    JoinInterrupted,
    RecoveryConfig,
    ResultLedger,
    ResumeReport,
    resume_join,
    run_recoverable_join,
)
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
    """A join plan whose every slice first idles for ``IDLE_S``, beating
    — a small join that outlasts a short lease."""

    IDLE_S = 0.2

    def __init__(self, plan):
        self.plan = plan
        self.signature = plan.signature

    def __len__(self):
        return len(self.plan)

    def run(self, start, stop, beat=None):
        for _ in range(5):
            time.sleep(self.IDLE_S / 5)
            beat()
        return self.plan.run(start, stop, beat)


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


class TestInterruptAndResume(Backend):
    @needs_fork
    def test_stop_after_commits_raises_and_resume_finishes(
        self, trees, expected, tmp_path
    ):
        journal = str(tmp_path / "mp.jnl")
        stopping = RecoveryConfig(
            lease_s=5.0,
            sweep_s=0.05,
            journal_path=journal,
            stop_after_commits=3,
        )
        with pytest.raises(JoinInterrupted):
            fault_tolerant_join(*trees, 2, recovery=stopping)

        report = resume_join(journal, *trees, processes=2, recovery=FAST)
        assert isinstance(report, ResumeReport)
        assert set(report.pairs) == expected
        assert len(report.pairs) == len(set(report.pairs))
        assert report.replayed_chunks >= 3
        assert report.rerun_chunks >= 1
        assert report.complete

    @needs_fork
    def test_interrupted_and_resumed_traces_are_lawful(
        self, trees, expected, tmp_path
    ):
        """A parent stopped after three commits leaves a lawful trace (its
        held chunks expire as ``interrupted`` and are requeued), and the
        resume replays exactly the chunks the journal committed — one
        ``JNL_REPLAYED`` each — under every checker."""
        journal = str(tmp_path / "mp.jnl")
        stopped, resumed = ListSink(), ListSink()
        with pytest.raises(JoinInterrupted):
            fault_tolerant_join(
                *trees,
                2,
                recovery=RecoveryConfig(
                    lease_s=5.0, sweep_s=0.05,
                    journal_path=journal, stop_after_commits=3,
                ),
                tracer=Tracer(sinks=[stopped]),
            )
        assert_lawful(stopped)
        report = resume_join(
            journal, *trees, processes=2, recovery=FAST,
            tracer=Tracer(sinks=[resumed]),
        )
        assert set(report.pairs) == expected
        assert_lawful(resumed)
        replays = [
            e for e in resumed.events if e.kind is EventKind.JNL_REPLAYED
        ]
        assert len(replays) == report.replayed_chunks >= 3

    @needs_fork
    def test_replayed_json_rows_and_fresh_tables_meet_in_one_ledger(
        self, trees, tmp_path, monkeypatch
    ):
        """A resumed run's ledger holds the journal's JSON row lists next
        to the re-run chunks' tables; ``all_rows`` is one table of both,
        equal to the sequential join as a multiset."""
        journal = str(tmp_path / "mp.jnl")
        stopping = RecoveryConfig(
            lease_s=5.0, sweep_s=0.05,
            journal_path=journal, stop_after_commits=3,
        )
        with pytest.raises(JoinInterrupted):
            fault_tolerant_join(*trees, 2, recovery=stopping)
        batches = []
        all_rows = ResultLedger.all_rows

        def spying(ledger):
            batches.extend(type(rows) for rows in ledger._rows.values())
            return all_rows(ledger)

        monkeypatch.setattr(ResultLedger, "all_rows", spying)
        report = resume_join(journal, *trees, processes=2, recovery=FAST)
        assert batches.count(list) == report.replayed_chunks >= 3
        assert batches.count(PairTable) == report.rerun_chunks >= 1
        assert type(report.pairs) is PairTable
        assert sorted(report.pairs) == sorted(sequential_join(*trees).pairs)

    def test_run_recoverable_join_is_resume_with_an_empty_journal(
        self, trees, expected, tmp_path
    ):
        journal = str(tmp_path / "mp.jnl")
        report = run_recoverable_join(
            *trees, journal_path=journal, processes=1, recovery=FAST
        )
        assert set(report.pairs) == expected
        assert report.replayed_chunks == 0
        assert report.complete

        # Resuming a finished join re-runs nothing.
        again = resume_join(journal, *trees, processes=1, recovery=FAST)
        assert set(again.pairs) == expected
        assert again.rerun_chunks == 0
        assert again.replayed_chunks == report.rerun_chunks

    def test_resume_against_other_trees_is_rejected(self, trees, tmp_path):
        journal = str(tmp_path / "mp.jnl")
        run_recoverable_join(
            *trees, journal_path=journal, processes=1, recovery=FAST
        )
        other_r, other_s = self.build(*paper_maps(scale=0.02))
        with pytest.raises(ValueError, match="journal"):
            resume_join(journal, other_r, other_s, processes=1, recovery=FAST)

    def test_resume_on_the_other_backend_is_rejected(self, trees, tmp_path):
        """The plan signature names its backend: chunk ids of a node
        journal mean nothing to the flat plan, and vice versa."""
        journal = str(tmp_path / "mp.jnl")
        run_recoverable_join(
            *trees, journal_path=journal, processes=1, recovery=FAST
        )
        other = build_flat if self.build is build_node else build_node
        with pytest.raises(ValueError, match="journal"):
            resume_join(
                journal,
                *other(*paper_maps(scale=0.01)),
                processes=1,
                recovery=FAST,
            )


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


class TestInterruptAndResumeFlat(FlatBackend, TestInterruptAndResume):
    pass
