"""Tests for STR bulk loading, pagination and the extra query operations."""

import math
import random

import pytest

from repro.geometry import Rect, brute_window_query
from repro.rtree import (
    PageStore,
    QueryStats,
    RStarTree,
    nearest_neighbors,
    str_bulk_load,
    tree_stats,
    window_query,
)
from repro.storage import PageKind


def random_items(n, seed=0, extent=100.0, max_size=4.0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x = rng.uniform(0, extent)
        y = rng.uniform(0, extent)
        out.append((i, Rect(x, y, x + rng.uniform(0, max_size), y + rng.uniform(0, max_size))))
    return out


class TestBulkLoad:
    def test_empty(self):
        tree = str_bulk_load([])
        assert len(tree) == 0
        assert tree.height == 1

    def test_single_item(self):
        tree = str_bulk_load([(1, Rect(0, 0, 1, 1))], dir_capacity=8, data_capacity=8)
        assert len(tree) == 1
        assert tree.height == 1
        tree.validate()

    @pytest.mark.parametrize("n", [5, 50, 500, 3000])
    def test_invariants_at_many_sizes(self, n):
        tree = str_bulk_load(
            random_items(n, seed=n), dir_capacity=10, data_capacity=10, fill=0.7
        )
        assert len(tree) == n
        tree.validate()

    def test_bad_fill_rejected(self):
        with pytest.raises(ValueError):
            str_bulk_load([(1, Rect(0, 0, 1, 1))], fill=0.0)

    def test_query_matches_brute_force(self):
        items = random_items(800, seed=11)
        tree = str_bulk_load(items, dir_capacity=12, data_capacity=12)
        window = Rect(20, 20, 60, 60)
        got = sorted(e.oid for e in window_query(tree, window))
        want = sorted(oid for oid, r in items if r.intersects(window))
        assert got == want

    def test_fill_controls_page_count(self):
        items = random_items(2000, seed=12)
        packed = str_bulk_load(items, dir_capacity=16, data_capacity=16, fill=1.0)
        loose = str_bulk_load(items, dir_capacity=16, data_capacity=16, fill=0.7)
        assert tree_stats(loose).data_pages > tree_stats(packed).data_pages
        # Loose fill should land near entries / (fill * capacity).
        expected = math.ceil(2000 / (0.7 * 16))
        assert abs(tree_stats(loose).data_pages - expected) <= expected * 0.2

    def test_dynamic_insert_after_bulk_load(self):
        items = random_items(300, seed=13)
        tree = str_bulk_load(items, dir_capacity=8, data_capacity=8)
        for i in range(300, 350):
            tree.insert(i, Rect(i, i, i + 1, i + 1))
        assert len(tree) == 350
        tree.validate()

    def test_bulk_load_much_faster_shape_same_height_class(self):
        # STR and dynamic build of the same data have comparable heights.
        items = random_items(1000, seed=14)
        bulk = str_bulk_load(items, dir_capacity=10, data_capacity=10)
        dynamic = RStarTree(dir_capacity=10, data_capacity=10)
        for oid, rect in items:
            dynamic.insert(oid, rect)
        assert abs(bulk.height - dynamic.height) <= 1


class TestPageStore:
    def make_two_trees(self):
        t1 = str_bulk_load(random_items(200, seed=20), dir_capacity=8, data_capacity=8)
        t2 = str_bulk_load(random_items(150, seed=21), dir_capacity=8, data_capacity=8)
        store = PageStore()
        store.add_tree(0, t1)
        store.add_tree(1, t2)
        return store, t1, t2

    def test_ids_unique_and_dense(self):
        store, t1, t2 = self.make_two_trees()
        pages = list(store.pages())
        assert pages == list(range(store.page_count))
        seen = {store.node(p).page_id for p in pages}
        assert seen == set(pages)

    def test_root_gets_first_page_of_its_tree(self):
        store, t1, t2 = self.make_two_trees()
        assert t1.root.page_id == 0
        assert t2.root.page_id is not None
        assert store.tree_of(t1.root.page_id) == 0
        assert store.tree_of(t2.root.page_id) == 1

    def test_kind_classification(self):
        store, t1, _ = self.make_two_trees()
        for page in store.pages():
            node = store.node(page)
            expected = PageKind.DATA if node.is_leaf else PageKind.DIRECTORY
            assert store.kind(page) is expected

    def test_depth(self):
        store, t1, _ = self.make_two_trees()
        assert store.depth(0, t1.root) == 0
        leaf = next(n for n in t1.nodes() if n.is_leaf)
        assert store.depth(0, leaf) == t1.height - 1

    def test_duplicate_tree_id_rejected(self):
        store, _, _ = self.make_two_trees()
        with pytest.raises(ValueError):
            store.add_tree(0, str_bulk_load([(1, Rect(0, 0, 1, 1))]))

    def test_tree_heights(self):
        store, t1, t2 = self.make_two_trees()
        assert store.tree_heights() == {0: t1.height, 1: t2.height}


class TestWindowQuery:
    def test_matches_tree_search(self):
        """The pruned descent finds what a scan of every leaf finds."""
        items = random_items(400, seed=30)
        tree = str_bulk_load(items, dir_capacity=8, data_capacity=8)
        window = Rect(10, 10, 50, 50)
        assert sorted(e.oid for e in window_query(tree, window)) == sorted(
            e.oid for e in brute_window_query(list(tree.data_entries()), window)
        )

    def test_stats_counted(self):
        items = random_items(400, seed=31)
        tree = str_bulk_load(items, dir_capacity=8, data_capacity=8)
        stats = QueryStats()
        window_query(tree, Rect(0, 0, 100, 100), stats)
        total = tree_stats(tree)
        assert stats.leaf_nodes == total.data_pages
        assert stats.directory_nodes == total.directory_pages
        assert stats.total_nodes == total.data_pages + total.directory_pages

    def test_small_window_touches_few_nodes(self):
        items = random_items(2000, seed=32)
        tree = str_bulk_load(items, dir_capacity=16, data_capacity=16)
        stats = QueryStats()
        window_query(tree, Rect(50, 50, 52, 52), stats)
        assert stats.total_nodes < tree_stats(tree).data_pages / 4


class TestNearestNeighbors:
    def test_k1_matches_brute_force(self):
        items = random_items(500, seed=40)
        tree = str_bulk_load(items, dir_capacity=8, data_capacity=8)
        rng = random.Random(41)
        for _ in range(15):
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            [(d, entry)] = nearest_neighbors(tree, x, y, k=1)
            want = min(
                Rect(x, y, x, y).min_distance(r) for _, r in items
            )
            assert d == pytest.approx(want)

    def test_k_results_sorted_and_correct(self):
        items = random_items(300, seed=42)
        tree = str_bulk_load(items, dir_capacity=8, data_capacity=8)
        x, y = 50.0, 50.0
        got = nearest_neighbors(tree, x, y, k=10)
        assert len(got) == 10
        distances = [d for d, _ in got]
        assert distances == sorted(distances)
        probe = Rect(x, y, x, y)
        all_distances = sorted(probe.min_distance(r) for _, r in items)
        assert distances == pytest.approx(all_distances[:10])

    def test_k_larger_than_tree(self):
        items = random_items(5, seed=43)
        tree = str_bulk_load(items, dir_capacity=8, data_capacity=8)
        assert len(nearest_neighbors(tree, 0, 0, k=50)) == 5

    def test_empty_tree(self):
        assert nearest_neighbors(RStarTree(), 0, 0, k=3) == []

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            nearest_neighbors(RStarTree(), 0, 0, k=0)
