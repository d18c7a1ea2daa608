"""Property tests: the trace invariants hold on randomized configurations.

Whatever the dataset, processor count, buffer size, variant or
reassignment policy, a traced run must satisfy task conservation and
steal soundness (and the other standard checkers); and replaying the
recorded stream through fresh checkers must agree with the online
verdicts.
"""

import random

import pytest
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
    VictimChoice,
    parallel_spatial_join,
    prepare_trees,
    sequential_join,
)
from repro.rtree import str_bulk_load
from repro.trace import TraceConfig, run_checkers


def build_pair(rects_r, rects_s):
    tree_r = str_bulk_load(list(enumerate(rects_r)), dir_capacity=6, data_capacity=6)
    tree_s = str_bulk_load(list(enumerate(rects_s)), dir_capacity=6, data_capacity=6)
    return tree_r, tree_s


def random_rects(seeded, count=80):
    return [
        Rect(x, y, x + seeded.uniform(0, 5), y + seeded.uniform(0, 5))
        for x, y in (
            (seeded.uniform(0, 60), seeded.uniform(0, 60)) for _ in range(count)
        )
    ]


@pytest.mark.slow
class TestTraceInvariantProperties:
    @given(
        st.integers(1, 6),          # processors
        st.integers(1, 4),          # disks
        st.integers(4, 60),         # buffer pages
        st.sampled_from([LSR, GSRR, GD]),
        st.sampled_from(list(ReassignLevel)),
        st.sampled_from(list(VictimChoice)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_invariants_hold_for_any_configuration(
        self, processors, disks, pages, variant, level, victim, rng
    ):
        seeded = random.Random(rng.randint(0, 10**6))
        tree_r, tree_s = build_pair(random_rects(seeded), random_rects(seeded))
        if tree_r.height != tree_s.height:
            return  # parallel task creation requires equal heights
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
                reassignment=ReassignmentPolicy(level=level, victim=victim),
                trace=TraceConfig(),
            ),
            page_store=page_store,
        )
        assert result.pair_set() == expected
        trace = result.trace
        # The headline invariants the paper's measurements rely on:
        assert trace.verdict("protocol:pair-lifecycle").ok, trace.summary()
        assert trace.verdict("steal-soundness").ok, trace.summary()
        # ... and everything else.
        trace.verify()

    @given(
        st.integers(2, 6),
        st.sampled_from([LSR, GSRR, GD]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=10, deadline=None)
    def test_replay_agrees_with_online_checkers(self, processors, variant, rng):
        seeded = random.Random(rng.randint(0, 10**6))
        tree_r, tree_s = build_pair(
            random_rects(seeded, 60), random_rects(seeded, 60)
        )
        if tree_r.height != tree_s.height:
            return
        page_store = prepare_trees(tree_r, tree_s)
        result = parallel_spatial_join(
            tree_r,
            tree_s,
            ParallelJoinConfig(
                processors=processors,
                disks=2,
                total_buffer_pages=24,
                variant=variant,
                trace=TraceConfig(),
            ),
            page_store=page_store,
        )
        online = {v.checker: (v.ok, v.violation_count) for v in result.trace.verdicts}
        replayed = {
            v.checker: (v.ok, v.violation_count)
            for v in run_checkers(result.trace.events)
        }
        assert replayed == online
        assert all(ok for ok, _ in replayed.values())
