"""Unit tests for R*-tree insertion, splitting, deletion and window search."""

import random

import pytest

from repro.geometry import Rect
from repro.rtree import Entry, RStarTree, tree_stats, window_query


def random_rects(n, seed=0, extent=100.0, max_size=5.0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x = rng.uniform(0, extent)
        y = rng.uniform(0, extent)
        out.append((i, Rect(x, y, x + rng.uniform(0, max_size), y + rng.uniform(0, max_size))))
    return out


def build(items, **kwargs):
    tree = RStarTree(**kwargs)
    for oid, rect in items:
        tree.insert(oid, rect)
    return tree


class TestConstruction:
    def test_default_capacities_match_paper(self):
        tree = RStarTree()
        assert tree.dir_capacity == 102
        assert tree.data_capacity == 26
        assert tree.min_dir == 40
        assert tree.min_data == 10

    def test_capacity_overrides(self):
        tree = RStarTree(dir_capacity=8, data_capacity=6)
        assert tree.dir_capacity == 8
        assert tree.data_capacity == 6

    def test_too_small_capacity_rejected(self):
        with pytest.raises(ValueError):
            RStarTree(data_capacity=3)

    def test_bad_min_fill_rejected(self):
        with pytest.raises(ValueError):
            RStarTree(min_fill=0.8)

    def test_empty_tree(self):
        tree = RStarTree()
        assert len(tree) == 0
        assert tree.height == 1
        assert window_query(tree, Rect(0, 0, 100, 100)) == []


class TestInsert:
    def test_single_insert(self):
        tree = RStarTree(dir_capacity=4, data_capacity=4)
        tree.insert("a", Rect(0, 0, 1, 1))
        assert len(tree) == 1
        assert tree.height == 1
        [found] = window_query(tree, Rect(0, 0, 2, 2))
        assert found.oid == "a"
        tree.validate()

    def test_leaf_split_grows_height(self):
        tree = RStarTree(dir_capacity=4, data_capacity=4)
        for i in range(5):
            tree.insert(i, Rect(i, 0, i + 0.5, 1))
        assert tree.height == 2
        tree.validate()

    def test_many_inserts_keep_invariants(self):
        tree = build(random_rects(500, seed=1), dir_capacity=8, data_capacity=8)
        assert len(tree) == 500
        assert tree.height >= 3
        tree.validate()

    def test_duplicate_rects_allowed(self):
        tree = RStarTree(dir_capacity=4, data_capacity=4)
        for i in range(20):
            tree.insert(i, Rect(1, 1, 2, 2))
        assert len(tree) == 20
        tree.validate()
        assert len(window_query(tree, Rect(0, 0, 3, 3))) == 20

    def test_degenerate_rects(self):
        tree = RStarTree(dir_capacity=4, data_capacity=4)
        for i in range(30):
            tree.insert(i, Rect(i * 0.1, 5, i * 0.1, 5))  # points
        tree.validate()
        assert len(window_query(tree, Rect(0, 5, 3, 5))) == 30

    def test_clustered_data(self):
        items = random_rects(200, seed=2, extent=5.0)  # heavy overlap
        tree = build(items, dir_capacity=6, data_capacity=6)
        tree.validate()


def min_overlap_by_loop(entries, entry):
    """The leaf-level ChooseSubtree rule as a scalar loop: least overlap
    growth, then least area enlargement, then least area, first wins."""
    best_index, best_key = 0, None
    for i, c in enumerate(entries):
        grown = (min(c.xl, entry.xl), min(c.yl, entry.yl),
                 max(c.xu, entry.xu), max(c.yu, entry.yu))
        delta = 0.0
        for j, o in enumerate(entries):
            if j == i:
                continue
            for box, sign in ((grown, 1.0), ((c.xl, c.yl, c.xu, c.yu), -1.0)):
                w = min(box[2], o.xu) - max(box[0], o.xl)
                h = min(box[3], o.yu) - max(box[1], o.yl)
                if w > 0.0 and h > 0.0:
                    delta += sign * (w * h)
        area = c.area()
        key = (delta, (grown[2] - grown[0]) * (grown[3] - grown[1]) - area, area)
        if best_key is None or key < best_key:
            best_index, best_key = i, key
    return best_index


class TestChooseSubtree:
    @pytest.mark.parametrize("seed", range(40))
    def test_min_overlap_matches_the_scalar_rule(self, seed):
        rng = random.Random(seed)
        # A coarse grid makes ties in every key component common.
        coarse = seed % 2 == 0

        def rect():
            if coarse:
                x, y = rng.randrange(8), rng.randrange(8)
                return Rect(x, y, x + rng.randrange(4), y + rng.randrange(4))
            x, y = rng.uniform(0, 50), rng.uniform(0, 50)
            return Rect(x, y, x + rng.uniform(0, 20), y + rng.uniform(0, 20))

        entries = [Entry.for_object(rect(), i) for i in range(rng.randrange(1, 40))]
        entry = Entry.for_object(rect(), -1)
        assert RStarTree._choose_min_overlap(entries, entry) == min_overlap_by_loop(
            entries, entry
        )


class TestSearch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_window_query_matches_brute_force(self, seed):
        items = random_rects(300, seed=seed)
        tree = build(items, dir_capacity=8, data_capacity=8)
        rects = [r for _, r in items]
        rng = random.Random(seed + 100)
        for _ in range(20):
            x = rng.uniform(0, 90)
            y = rng.uniform(0, 90)
            window = Rect(x, y, x + rng.uniform(1, 30), y + rng.uniform(1, 30))
            got = sorted(e.oid for e in window_query(tree, window))
            want = sorted(
                i for i, (oid, r) in enumerate(items) if r.intersects(window)
            )
            assert got == want

    def test_search_empty_window_region(self):
        tree = build(random_rects(100, seed=3), dir_capacity=8, data_capacity=8)
        assert window_query(tree, Rect(1000, 1000, 1001, 1001)) == []

    def test_mbr_covers_everything(self):
        items = random_rects(100, seed=4)
        tree = build(items, dir_capacity=8, data_capacity=8)
        mbr = tree.mbr()
        for _, r in items:
            assert mbr.contains(r)


class TestDelete:
    def test_delete_existing(self):
        items = random_rects(50, seed=5)
        tree = build(items, dir_capacity=6, data_capacity=6)
        oid, rect = items[25]
        assert tree.delete(oid, rect)
        assert len(tree) == 49
        assert all(e.oid != oid for e in window_query(tree, rect))
        tree.validate()

    def test_delete_missing_returns_false(self):
        tree = build(random_rects(20, seed=6), dir_capacity=6, data_capacity=6)
        assert not tree.delete(999, Rect(0, 0, 1, 1))
        assert len(tree) == 20

    def test_delete_all(self):
        items = random_rects(80, seed=7)
        tree = build(items, dir_capacity=6, data_capacity=6)
        for oid, rect in items:
            assert tree.delete(oid, rect)
        assert len(tree) == 0
        assert tree.height == 1
        assert window_query(tree, Rect(-1000, -1000, 1000, 1000)) == []

    def test_delete_half_keeps_invariants_and_results(self):
        items = random_rects(200, seed=8)
        tree = build(items, dir_capacity=7, data_capacity=7)
        for oid, rect in items[::2]:
            assert tree.delete(oid, rect)
        tree.validate()
        survivors = {oid for oid, _ in items[1::2]}
        found = {e.oid for e in window_query(tree, Rect(-1e6, -1e6, 1e6, 1e6))}
        assert found == survivors

    def test_interleaved_insert_delete(self):
        tree = RStarTree(dir_capacity=5, data_capacity=5)
        rng = random.Random(9)
        live = {}
        next_oid = 0
        for step in range(600):
            if live and rng.random() < 0.4:
                oid = rng.choice(list(live))
                assert tree.delete(oid, live.pop(oid))
            else:
                x, y = rng.uniform(0, 50), rng.uniform(0, 50)
                rect = Rect(x, y, x + rng.uniform(0, 3), y + rng.uniform(0, 3))
                tree.insert(next_oid, rect)
                live[next_oid] = rect
                next_oid += 1
        tree.validate()
        assert len(tree) == len(live)


class TestTreeStats:
    def test_counts(self):
        items = random_rects(300, seed=10)
        tree = build(items, dir_capacity=8, data_capacity=8)
        stats = tree_stats(tree)
        assert stats.data_entries == 300
        assert stats.height == tree.height
        assert stats.nodes_per_level[tree.root.level] == 1
        assert stats.data_pages == stats.nodes_per_level[0]
        assert stats.directory_pages == sum(
            count for level, count in stats.nodes_per_level.items() if level > 0
        )
        assert 0.4 <= stats.avg_leaf_fill <= 1.0

    def test_single_leaf_tree(self):
        tree = RStarTree(dir_capacity=8, data_capacity=8)
        tree.insert(1, Rect(0, 0, 1, 1))
        stats = tree_stats(tree)
        assert stats.data_pages == 1
        assert stats.directory_pages == 0

    def test_table1_row_keys(self):
        tree = RStarTree(dir_capacity=8, data_capacity=8)
        tree.insert(1, Rect(0, 0, 1, 1))
        row = tree_stats(tree).as_table1_row()
        assert set(row) == {
            "height",
            "number of data entries",
            "number of data pages",
            "number of directory pages",
        }
