"""Tests for task creation (section 3.1) and task assignment (3.1/3.3)."""

import random

import pytest

from repro.geometry import Rect
from repro.join import (
    GD,
    GSRR,
    LSR,
    AssignmentMode,
    BufferMode,
    Task,
    count_root_tasks,
    create_tasks,
    static_range_assignment,
    static_round_robin_assignment,
)
from repro.join.parallel import prepare_trees
from repro.rtree import str_bulk_load


def make_trees(n_r=400, n_s=400, seed=0, caps=10, prepare=True):
    rng = random.Random(seed)

    def items(n, offset):
        out = []
        for i in range(n):
            x, y = rng.uniform(0, 50), rng.uniform(0, 50)
            out.append((i + offset, Rect(x, y, x + rng.uniform(0, 3), y + rng.uniform(0, 3))))
        return out

    tree_r = str_bulk_load(items(n_r, 0), dir_capacity=caps, data_capacity=caps)
    tree_s = str_bulk_load(items(n_s, 0), dir_capacity=caps, data_capacity=caps)
    if prepare:
        prepare_trees(tree_r, tree_s)
    return tree_r, tree_s


def sweep_stop(task) -> float:
    """Where the sweep line stops for a task: the smaller left MBR edge."""
    return min(task.node_r.mbr_tuple()[0], task.node_s.mbr_tuple()[0])


class TestCreateTasks:
    def test_tasks_are_intersecting_pairs(self):
        tree_r, tree_s = make_trees()
        tasks = create_tasks(tree_r, tree_s)
        assert tasks
        for task in tasks:
            a = Rect(*task.node_r.mbr_tuple())
            b = Rect(*task.node_s.mbr_tuple())
            assert a.intersects(b)

    def test_task_count_matches_m(self):
        tree_r, tree_s = make_trees()
        tasks = create_tasks(tree_r, tree_s)
        assert len(tasks) == count_root_tasks(tree_r, tree_s)

    def test_plane_sweep_order(self):
        tree_r, tree_s = make_trees()
        tasks = create_tasks(tree_r, tree_s)
        positions = [sweep_stop(t) for t in tasks]
        assert positions == sorted(positions)

    def test_descends_when_too_few(self):
        tree_r, tree_s = make_trees()
        m = count_root_tasks(tree_r, tree_s)
        tasks = create_tasks(tree_r, tree_s, min_tasks=m + 1)
        assert len(tasks) > m
        # One level deeper than the root-entry level.
        root_task_level = tree_r.root.level - 1
        assert all(t.level == root_task_level - 1 for t in tasks)
        positions = [sweep_stop(t) for t in tasks]
        assert positions == sorted(positions)

    def test_order_does_not_need_prepared_trees(self):
        # Entries kept in bulk-load order, then xl-sorted in place: the same
        # nodes come out in the same sweep-stop order either way.
        tree_r, tree_s = make_trees(prepare=False)
        before = create_tasks(tree_r, tree_s, min_tasks=10**6)
        prepare_trees(tree_r, tree_s)
        after = create_tasks(tree_r, tree_s, min_tasks=10**6)
        assert [(t.node_r, t.node_s) for t in before] == [
            (t.node_r, t.node_s) for t in after
        ]
        positions = [sweep_stop(t) for t in before]
        assert positions == sorted(positions)

    def test_descends_at_most_to_leaves(self):
        tree_r, tree_s = make_trees(n_r=150, n_s=150)
        tasks = create_tasks(tree_r, tree_s, min_tasks=10**9)
        assert all(t.level == 0 for t in tasks)

    def test_empty_tree_no_tasks(self):
        from repro.rtree import RStarTree

        tree_r, tree_s = make_trees()
        empty = RStarTree(dir_capacity=10, data_capacity=10)
        assert create_tasks(empty, tree_s) == []
        assert create_tasks(tree_r, empty) == []

    def test_disjoint_trees_no_tasks(self):
        rng = random.Random(1)
        items_a = [(i, Rect(i, 0, i + 0.5, 1)) for i in range(100)]
        items_b = [(i, Rect(i + 1000, 0, i + 1000.5, 1)) for i in range(100)]
        a = str_bulk_load(items_a, dir_capacity=8, data_capacity=8)
        b = str_bulk_load(items_b, dir_capacity=8, data_capacity=8)
        assert create_tasks(a, b) == []
        assert count_root_tasks(a, b) == 0

    def test_single_leaf_trees(self):
        a = str_bulk_load([(0, Rect(0, 0, 1, 1))], dir_capacity=8, data_capacity=8)
        b = str_bulk_load([(0, Rect(0.5, 0.5, 2, 2))], dir_capacity=8, data_capacity=8)
        tasks = create_tasks(a, b)
        assert len(tasks) == 1
        assert tasks[0].node_r is a.root

    def test_unequal_heights_rejected(self):
        big = str_bulk_load(
            [(i, Rect(i, 0, i + 0.5, 1)) for i in range(200)],
            dir_capacity=8,
            data_capacity=8,
        )
        small = str_bulk_load([(0, Rect(0, 0, 1, 1))], dir_capacity=8, data_capacity=8)
        with pytest.raises(ValueError):
            create_tasks(big, small)


class TestStaticAssignments:
    def make_tasks(self, count):
        tree_r, tree_s = make_trees()
        tasks = create_tasks(tree_r, tree_s, min_tasks=count)
        assert len(tasks) >= count
        return tasks

    def test_range_sizes_follow_paper_rule(self):
        tasks = self.make_tasks(10)
        m, n = len(tasks), 4
        workloads = static_range_assignment(tasks, n)
        sizes = [len(w) for w in workloads]
        base, extra = divmod(m, n)
        assert sizes == [base + 1] * extra + [base] * (n - extra)

    def test_range_is_contiguous(self):
        tasks = self.make_tasks(10)
        workloads = static_range_assignment(tasks, 3)
        flattened = [t for w in workloads for t in w]
        assert flattened == tasks

    def test_round_robin_deals_in_order(self):
        tasks = self.make_tasks(10)
        n = 3
        workloads = static_round_robin_assignment(tasks, n)
        for p, workload in enumerate(workloads):
            assert workload == tasks[p::n]

    def test_round_robin_sizes_balanced(self):
        tasks = self.make_tasks(10)
        workloads = static_round_robin_assignment(tasks, 4)
        sizes = [len(w) for w in workloads]
        assert max(sizes) - min(sizes) <= 1

    def test_every_task_assigned_exactly_once(self):
        tasks = self.make_tasks(10)
        for assign in (static_range_assignment, static_round_robin_assignment):
            workloads = assign(tasks, 5)
            seen = [t for w in workloads for t in w]
            assert len(seen) == len(tasks)
            assert {id(t) for t in seen} == {id(t) for t in tasks}

    def test_more_processors_than_tasks(self):
        tasks = self.make_tasks(3)[:3]
        workloads = static_range_assignment(tasks, 8)
        assert sum(len(w) for w in workloads) == 3
        assert all(len(w) <= 1 for w in workloads)

    def test_zero_processors_rejected(self):
        with pytest.raises(ValueError):
            static_range_assignment([], 0)
        with pytest.raises(ValueError):
            static_round_robin_assignment([], 0)


class TestVariants:
    def test_paper_names(self):
        assert LSR.short_name == "lsr"
        assert GSRR.short_name == "gsrr"
        assert GD.short_name == "gd"

    def test_variant_fields(self):
        assert LSR.buffer is BufferMode.LOCAL
        assert LSR.assignment is AssignmentMode.STATIC_RANGE
        assert GSRR.buffer is BufferMode.GLOBAL
        assert GSRR.assignment is AssignmentMode.STATIC_ROUND_ROBIN
        assert GD.buffer is BufferMode.GLOBAL
        assert GD.assignment is AssignmentMode.DYNAMIC
