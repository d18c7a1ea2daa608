"""Tests for the simulated parallel spatial join (paper sections 3-4)."""

import pytest

from repro.datagen import build_tree, paper_maps
from repro.join import (
    GD,
    GSRR,
    LSR,
    ParallelJoinConfig,
    ReassignLevel,
    RefinementModel,
    ReassignmentPolicy,
    VictimChoice,
    parallel_spatial_join,
    prepare_trees,
    sequential_join,
)
from repro.join import parallel as parallel_module

SCALE = 0.02


@pytest.fixture(scope="module")
def workload():
    m1, m2 = paper_maps(scale=SCALE)
    tree_r, tree_s = build_tree(m1), build_tree(m2)
    page_store = prepare_trees(tree_r, tree_s)
    expected = sequential_join(tree_r, tree_s).pair_set()
    return tree_r, tree_s, page_store, expected


def run(workload, **kwargs):
    tree_r, tree_s, page_store, _ = workload
    config = ParallelJoinConfig(**kwargs)
    return parallel_spatial_join(tree_r, tree_s, config, page_store=page_store)


ALL_VARIANTS = [LSR, GSRR, GD]
ALL_POLICIES = [
    ReassignmentPolicy(level=ReassignLevel.NONE),
    ReassignmentPolicy(level=ReassignLevel.ROOT),
    ReassignmentPolicy(level=ReassignLevel.ALL),
    ReassignmentPolicy(level=ReassignLevel.ALL, victim=VictimChoice.ARBITRARY),
]


class TestResultCorrectness:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.short_name)
    @pytest.mark.parametrize(
        "policy",
        ALL_POLICIES,
        ids=["none", "root", "all", "all-arbitrary"],
    )
    def test_every_variant_matches_sequential(self, workload, variant, policy):
        result = run(
            workload,
            processors=4,
            disks=4,
            total_buffer_pages=160,
            variant=variant,
            reassignment=policy,
        )
        assert result.pair_set() == workload[3]

    def test_single_processor(self, workload):
        result = run(workload, processors=1, disks=1, total_buffer_pages=100)
        assert result.pair_set() == workload[3]
        assert result.metrics["remote_hits"] == 0

    def test_many_processors(self, workload):
        result = run(workload, processors=24, disks=24, total_buffer_pages=960)
        assert result.pair_set() == workload[3]

    def test_no_candidate_counted_twice(self, workload):
        result = run(workload, processors=6, disks=6, total_buffer_pages=240)
        total = sum(len(p) for p in result.pairs_by_processor)
        assert total == len(result.pair_set())

    def test_tiny_buffer(self, workload):
        result = run(workload, processors=4, disks=4, total_buffer_pages=4)
        assert result.pair_set() == workload[3]


class TestDeterminism:
    def test_identical_runs_identical_results(self, workload):
        a = run(workload, processors=6, disks=6, total_buffer_pages=240)
        b = run(workload, processors=6, disks=6, total_buffer_pages=240)
        assert a.disk_accesses == b.disk_accesses
        assert a.response_time == b.response_time
        assert a.times.finish == b.times.finish
        assert a.pairs_by_processor == b.pairs_by_processor

    def test_arbitrary_victim_seeded(self, workload):
        policy = ReassignmentPolicy(
            level=ReassignLevel.ALL, victim=VictimChoice.ARBITRARY, seed=3
        )
        a = run(workload, processors=6, disks=6, total_buffer_pages=240, reassignment=policy)
        b = run(workload, processors=6, disks=6, total_buffer_pages=240, reassignment=policy)
        assert a.response_time == b.response_time
        assert a.reassignments == b.reassignments


class TestTimingSanity:
    def test_parallel_faster_than_single(self, workload):
        single = run(workload, processors=1, disks=1, total_buffer_pages=100)
        eight = run(workload, processors=8, disks=8, total_buffer_pages=800)
        assert eight.response_time < single.response_time
        speedup = eight.speedup_against(single)
        assert 2.0 < speedup <= 8.5

    def test_response_time_is_last_finisher(self, workload):
        result = run(workload, processors=4, disks=4, total_buffer_pages=160)
        assert result.response_time == max(result.times.finish)
        assert result.times.first_finish <= result.times.average_finish
        assert result.times.average_finish <= result.response_time

    def test_busy_time_bounded_by_finish_time(self, workload):
        result = run(workload, processors=4, disks=4, total_buffer_pages=160)
        for busy, finish in zip(result.times.busy, result.times.finish):
            assert busy <= finish + 1e-9

    def test_one_disk_bottleneck(self, workload):
        # Figure 9: with one disk, adding processors stops helping.
        one = run(workload, processors=4, disks=1, total_buffer_pages=400)
        more = run(workload, processors=16, disks=1, total_buffer_pages=400)
        assert more.response_time > one.response_time * 0.7  # no big win

    def test_refinement_disabled_is_faster(self, workload, monkeypatch):
        with_r = run(workload, processors=4, disks=4, total_buffer_pages=160)
        monkeypatch.setattr(
            parallel_module, "REFINEMENT", RefinementModel(t_min=0.0, t_max=0.0)
        )
        without = run(workload, processors=4, disks=4, total_buffer_pages=160)
        assert without.response_time < with_r.response_time
        assert without.pair_set() == workload[3]


class TestBufferBehaviour:
    def test_global_buffer_has_remote_hits(self, workload):
        result = run(
            workload, processors=6, disks=6, total_buffer_pages=240, variant=GSRR
        )
        assert result.metrics["remote_hits"] > 0

    def test_local_buffers_have_none(self, workload):
        result = run(
            workload, processors=6, disks=6, total_buffer_pages=240, variant=LSR
        )
        assert result.metrics["remote_hits"] == 0

    def test_bigger_buffer_fewer_disk_accesses(self, workload):
        small = run(workload, processors=4, disks=4, total_buffer_pages=32)
        large = run(workload, processors=4, disks=4, total_buffer_pages=2000)
        assert large.disk_accesses < small.disk_accesses

    def test_disk_accesses_at_least_pages_touched(self, workload):
        # Cold buffers: every distinct page used must be read at least once.
        result = run(workload, processors=4, disks=4, total_buffer_pages=4000)
        tree_r, tree_s, page_store, _ = workload
        assert result.disk_accesses >= 2  # roots at minimum
        # With a huge buffer, disk accesses approach distinct-page count:
        # every page at most once per processor partition (global buffer:
        # globally once).
        gd_result = run(
            workload,
            processors=4,
            disks=4,
            total_buffer_pages=4000,
            variant=GD,
        )
        assert gd_result.disk_accesses <= page_store.page_count

    def test_metrics_consistency(self, workload):
        result = run(workload, processors=4, disks=4, total_buffer_pages=160)
        m = result.metrics
        accesses = (
            m["path_hits"] + m["lru_hits"] + m["remote_hits"] + m["disk_reads"]
        )
        # Every node-pair processing accesses exactly two pages.
        assert accesses % 2 == 0
        assert m["candidates"] == len(result.pair_set())


class TestReassignment:
    def test_reassignment_reduces_finish_spread_for_lsr(self, workload):
        base = run(
            workload,
            processors=8,
            disks=8,
            total_buffer_pages=320,
            variant=LSR,
            reassignment=ReassignmentPolicy(level=ReassignLevel.NONE),
        )
        balanced = run(
            workload,
            processors=8,
            disks=8,
            total_buffer_pages=320,
            variant=LSR,
            reassignment=ReassignmentPolicy(level=ReassignLevel.ALL),
        )
        spread_base = base.response_time - base.times.first_finish
        spread_balanced = balanced.response_time - balanced.times.first_finish
        assert spread_balanced < spread_base
        assert balanced.response_time <= base.response_time

    def test_reassignments_happen(self, workload):
        result = run(
            workload,
            processors=8,
            disks=8,
            total_buffer_pages=320,
            variant=LSR,
            reassignment=ReassignmentPolicy(level=ReassignLevel.ALL),
        )
        assert result.reassignments > 0
        assert result.metrics["pairs_reassigned"] > 0

    def test_none_policy_never_reassigns(self, workload):
        result = run(
            workload,
            processors=8,
            disks=8,
            total_buffer_pages=320,
            variant=LSR,
            reassignment=ReassignmentPolicy(level=ReassignLevel.NONE),
        )
        assert result.reassignments == 0

    def test_gd_root_equals_none(self, workload):
        # Section 4.4: with dynamic assignment, root-level reassignment is
        # a no-op — the queue already hands out root pairs one by one.
        none = run(
            workload,
            processors=6,
            disks=6,
            total_buffer_pages=240,
            variant=GD,
            reassignment=ReassignmentPolicy(level=ReassignLevel.NONE),
        )
        root = run(
            workload,
            processors=6,
            disks=6,
            total_buffer_pages=240,
            variant=GD,
            reassignment=ReassignmentPolicy(level=ReassignLevel.ROOT),
        )
        assert root.reassignments == 0
        assert none.response_time == root.response_time
        assert none.disk_accesses == root.disk_accesses


class TestTaskAccounting:
    def test_tasks_created_reported(self, workload):
        result = run(workload, processors=4, disks=4, total_buffer_pages=160)
        assert result.tasks_created > 0

    def test_static_assignment_balances_task_counts(self, workload):
        result = run(
            workload, processors=4, disks=4, total_buffer_pages=160, variant=LSR,
            reassignment=ReassignmentPolicy(level=ReassignLevel.NONE),
        )
        sizes = result.tasks_by_processor
        assert sum(sizes) == result.tasks_created
        assert max(sizes) - min(sizes) <= 1

    def test_dynamic_all_tasks_fetched(self, workload):
        result = run(
            workload, processors=4, disks=4, total_buffer_pages=160, variant=GD,
        )
        assert sum(result.tasks_by_processor) == result.tasks_created

    def test_invalid_processor_count(self, workload):
        with pytest.raises(ValueError):
            run(workload, processors=0)


class TestSelfJoin:
    def test_parallel_self_join_matches_sequential(self, workload):
        tree_r, _, _, _ = workload
        from repro.join import prepare_trees as prep

        expected = sequential_join(tree_r, tree_r).pair_set()
        store = prep(tree_r, tree_r)
        result = parallel_spatial_join(
            tree_r,
            tree_r,
            ParallelJoinConfig(processors=4, disks=4, total_buffer_pages=160),
            page_store=store,
        )
        assert result.pair_set() == expected

    def test_self_join_pages_counted_once(self, workload):
        tree_r, _, _, _ = workload
        from repro.join import prepare_trees as prep

        store = prep(tree_r, tree_r)
        # One pagination: page ids are dense over a single tree.
        assert store.page_count == sum(1 for _ in tree_r.nodes())


class TestMinimumSplitSize:
    def test_large_threshold_disables_stealing(self, workload):
        huge = ReassignmentPolicy(level=ReassignLevel.ALL, min_pairs=10**6)
        result = run(
            workload,
            processors=8,
            disks=8,
            total_buffer_pages=320,
            variant=LSR,
            reassignment=huge,
        )
        assert result.reassignments == 0
        assert result.pair_set() == workload[3]

    def test_threshold_reduces_reassignments(self, workload):
        eager = run(
            workload, processors=8, disks=8, total_buffer_pages=320,
            variant=LSR,
            reassignment=ReassignmentPolicy(level=ReassignLevel.ALL, min_pairs=1),
        )
        choosy = run(
            workload, processors=8, disks=8, total_buffer_pages=320,
            variant=LSR,
            reassignment=ReassignmentPolicy(level=ReassignLevel.ALL, min_pairs=8),
        )
        assert choosy.reassignments <= eager.reassignments
        assert choosy.pair_set() == workload[3]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ReassignmentPolicy(min_pairs=0)
