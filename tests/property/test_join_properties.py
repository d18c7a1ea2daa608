"""Property-based tests for the join layer."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
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
    static_range_assignment,
    static_round_robin_assignment,
)
from repro.rtree import str_bulk_load

coords = st.floats(min_value=0, max_value=100, allow_nan=False)
sizes = st.floats(min_value=0, max_value=8, allow_nan=False)


@st.composite
def rect_st(draw):
    xl = draw(coords)
    yl = draw(coords)
    return Rect(xl, yl, xl + draw(sizes), yl + draw(sizes))


def build_pair(rects_r, rects_s):
    tree_r = str_bulk_load(list(enumerate(rects_r)), dir_capacity=6, data_capacity=6)
    tree_s = str_bulk_load(list(enumerate(rects_s)), dir_capacity=6, data_capacity=6)
    return tree_r, tree_s


class TestSequentialJoinProperties:
    @given(
        st.lists(rect_st(), min_size=1, max_size=60),
        st.lists(rect_st(), min_size=1, max_size=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, rects_r, rects_s):
        tree_r, tree_s = build_pair(rects_r, rects_s)
        got = sequential_join(tree_r, tree_s).pair_set()
        want = {
            (i, j)
            for i, r in enumerate(rects_r)
            for j, s in enumerate(rects_s)
            if r.intersects(s)
        }
        assert got == want

    @given(
        st.lists(rect_st(), min_size=1, max_size=40),
        st.lists(rect_st(), min_size=1, max_size=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_tasks_cover_join_exactly(self, rects_r, rects_s):
        # The union of per-task joins equals the full join, without
        # duplicates (each node pair has a unique ancestor task).
        from repro.join.mp import plan_join

        tree_r, tree_s = build_pair(rects_r, rects_s)
        if tree_r.height != tree_s.height:
            return  # parallel task creation requires equal heights
        prepare_trees(tree_r, tree_s)
        plan = plan_join(tree_r, tree_s, min_tasks=1)
        pairs = [pair for tid in range(len(plan)) for pair in plan.run(tid, tid + 1)]
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == sequential_join(tree_r, tree_s).pair_set()


class TestAssignmentProperties:
    @given(st.integers(0, 50), st.integers(1, 12))
    def test_partition_properties(self, m, n):
        tasks = list(range(m))  # assignment is agnostic to task type
        for assign in (static_range_assignment, static_round_robin_assignment):
            workloads = assign(tasks, n)
            assert len(workloads) == n
            flat = [t for w in workloads for t in w]
            assert sorted(flat) == tasks
            sizes = [len(w) for w in workloads]
            assert max(sizes) - min(sizes) <= 1


class TestParallelJoinProperty:
    @given(
        st.integers(1, 6),          # processors
        st.integers(1, 4),          # disks
        st.integers(4, 60),         # buffer pages
        st.sampled_from([LSR, GSRR, GD]),
        st.sampled_from(list(ReassignLevel)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_configuration_matches_sequential(
        self, processors, disks, pages, variant, level, rng
    ):
        seeded = random.Random(rng.randint(0, 10**6))
        rects_r = [
            Rect(x, y, x + seeded.uniform(0, 5), y + seeded.uniform(0, 5))
            for x, y in (
                (seeded.uniform(0, 60), seeded.uniform(0, 60)) for _ in range(80)
            )
        ]
        rects_s = [
            Rect(x, y, x + seeded.uniform(0, 5), y + seeded.uniform(0, 5))
            for x, y in (
                (seeded.uniform(0, 60), seeded.uniform(0, 60)) for _ in range(80)
            )
        ]
        tree_r, tree_s = build_pair(rects_r, rects_s)
        if tree_r.height != tree_s.height:
            return
        page_store = prepare_trees(tree_r, tree_s)
        expected = sequential_join(tree_r, tree_s).pair_set()
        result = parallel_spatial_join(
            tree_r,
            tree_s,
            ParallelJoinConfig(
                processors=processors,
                disks=disks,
                total_buffer_pages=pages,
                variant=variant,
                reassignment=ReassignmentPolicy(level=level),
            ),
            page_store=page_store,
        )
        assert result.pair_set() == expected
        total = sum(len(p) for p in result.pairs_by_processor)
        assert total == len(expected)
