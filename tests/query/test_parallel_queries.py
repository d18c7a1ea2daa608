"""Tests for parallel window and kNN queries on the simulated machine."""

import random

import pytest

from repro.geometry import Rect
from repro.join import prepare_trees
from repro.query import ParallelQueryConfig, parallel_knn, parallel_window_query
from repro.rtree import RStarTree, nearest_neighbors, str_bulk_load
from repro.rtree.query import _min_distance


@pytest.fixture(scope="module")
def tree():
    rng = random.Random(11)
    items = []
    for i in range(3000):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        items.append((i, Rect(x, y, x + rng.uniform(0, 2), y + rng.uniform(0, 2))))
    built = str_bulk_load(items, dir_capacity=16, data_capacity=16)
    prepare_trees(built, built)
    return built, items


def ring_tree():
    """160 unit boxes around (0.5, 0.5), every one exactly 1.0 away, with
    oids in no particular order: a kNN answer here is all ties."""
    rng = random.Random(5)
    boxes = []
    for i in range(40):
        t = -0.5 + i / 40
        boxes += [Rect(t, 1.5, t + 1, 2.5), Rect(t, -1.5, t + 1, -0.5),
                  Rect(-1.5, t, -0.5, t + 1), Rect(1.5, t, 2.5, t + 1)]
    items = list(zip(rng.sample(range(1000), len(boxes)), boxes))
    return str_bulk_load(items, dir_capacity=8, data_capacity=8)


def answer(result, x, y):
    return [(_min_distance(e, x, y), e.oid) for e in result.entries]


@pytest.fixture(scope="module")
def page_store(tree):
    built, _ = tree
    return prepare_trees(built, built)


class TestParallelWindowQuery:
    @pytest.mark.parametrize("processors", [1, 4, 8])
    def test_matches_sequential(self, tree, page_store, processors):
        built, items = tree
        window = Rect(20, 20, 60, 55)
        result = parallel_window_query(
            built,
            window,
            ParallelQueryConfig(processors=processors, disks=processors,
                                total_buffer_pages=40 * processors),
            page_store=page_store,
        )
        want = {i for i, r in items if r.intersects(window)}
        assert result.oid_set() == want

    def test_no_duplicates(self, tree, page_store):
        built, _ = tree
        result = parallel_window_query(
            built, Rect(0, 0, 100, 100),
            ParallelQueryConfig(processors=6, disks=6, total_buffer_pages=240),
            page_store=page_store,
        )
        oids = [e.oid for e in result.entries]
        assert len(oids) == len(set(oids)) == built.size

    def test_empty_window(self, tree, page_store):
        built, _ = tree
        result = parallel_window_query(
            built, Rect(500, 500, 600, 600),
            ParallelQueryConfig(processors=4, disks=4, total_buffer_pages=80),
            page_store=page_store,
        )
        assert result.entries == []

    def test_empty_tree(self):
        empty = RStarTree(dir_capacity=8, data_capacity=8)
        result = parallel_window_query(
            empty, Rect(0, 0, 1, 1),
            ParallelQueryConfig(processors=2, disks=2, total_buffer_pages=8),
        )
        assert result.entries == []

    def test_parallel_faster_than_single(self, tree, page_store):
        built, _ = tree
        window = Rect(0, 0, 100, 100)

        def run(n):
            return parallel_window_query(
                built, window,
                ParallelQueryConfig(processors=n, disks=n,
                                    total_buffer_pages=40 * n),
                page_store=page_store,
            )

        single = run(1)
        eight = run(8)
        assert eight.response_time < single.response_time
        assert single.response_time / eight.response_time > 3

    def test_disk_accesses_counted(self, tree, page_store):
        built, _ = tree
        result = parallel_window_query(
            built, Rect(0, 0, 100, 100),
            ParallelQueryConfig(processors=4, disks=4, total_buffer_pages=160),
            page_store=page_store,
        )
        assert result.disk_accesses > 0

    def test_invalid_processor_count(self, tree):
        built, _ = tree
        with pytest.raises(ValueError):
            parallel_window_query(
                built, Rect(0, 0, 1, 1), ParallelQueryConfig(processors=0)
            )


class TestParallelKnn:
    @pytest.mark.parametrize("processors", [1, 4])
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_matches_sequential_knn(self, tree, page_store, processors, k):
        built, _ = tree
        result = parallel_knn(
            built, 50.0, 50.0, k,
            ParallelQueryConfig(processors=processors, disks=processors,
                                total_buffer_pages=40 * processors),
            page_store=page_store,
        )
        want = nearest_neighbors(built, 50.0, 50.0, k=k)
        assert answer(result, 50.0, 50.0) == [(d, e.oid) for d, e in want]

    @pytest.mark.parametrize("processors", [1, 2, 4])
    @pytest.mark.parametrize("k", [1, 3])
    def test_ties_resolve_like_sequential_knn(self, processors, k):
        built = ring_tree()
        result = parallel_knn(
            built, 0.5, 0.5, k,
            ParallelQueryConfig(processors=processors, disks=processors,
                                total_buffer_pages=8 * processors),
        )
        want = nearest_neighbors(built, 0.5, 0.5, k=k)
        assert answer(result, 0.5, 0.5) == [(d, e.oid) for d, e in want]

    def test_k_larger_than_tree(self):
        items = [(i, Rect(i, 0, i + 0.5, 1)) for i in range(5)]
        built = str_bulk_load(items, dir_capacity=8, data_capacity=8)
        result = parallel_knn(
            built, 0, 0, 50,
            ParallelQueryConfig(processors=2, disks=2, total_buffer_pages=8),
        )
        assert len(result.entries) == 5

    def test_k_zero_rejected(self, tree):
        built, _ = tree
        with pytest.raises(ValueError):
            parallel_knn(built, 0, 0, 0, ParallelQueryConfig())

    def test_empty_tree(self):
        empty = RStarTree(dir_capacity=8, data_capacity=8)
        result = parallel_knn(empty, 0, 0, 3, ParallelQueryConfig(processors=2))
        assert result.entries == []

    def test_shared_bound_prunes(self, tree, page_store):
        # With the shared bound, a k=1 query must touch far fewer pages
        # than a full scan of the tree.
        built, _ = tree
        result = parallel_knn(
            built, 50.0, 50.0, 1,
            ParallelQueryConfig(processors=4, disks=4, total_buffer_pages=160),
            page_store=page_store,
        )
        total_pages = sum(1 for _ in built.nodes())
        assert result.disk_accesses < total_pages / 2

    def test_deterministic(self, tree, page_store):
        built, _ = tree
        runs = [
            parallel_knn(
                built, 30.0, 70.0, 10,
                ParallelQueryConfig(processors=4, disks=4, total_buffer_pages=160),
                page_store=page_store,
            )
            for _ in range(2)
        ]
        assert [e.oid for e in runs[0].entries] == [e.oid for e in runs[1].entries]
        assert runs[0].response_time == runs[1].response_time
