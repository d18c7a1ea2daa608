"""A data page is a row range of the table the tree was built from.

A node R*-tree's leaf holds its data entries as positions ``[lo, hi)`` of
one ``int64`` permutation over a :class:`BoxTable` — the map's own table
for a bulk-loaded tree, a one-leaf table of its own for a leaf an update
changed — and nothing else: no box or oid is copied, no ``Entry`` per
data row is built or kept.  Pinned here without a wall clock: the bytes a
bulk-built tree traces per data entry, the ``Entry`` objects a build
constructs, that the tree points at its input and never writes it, and
the shape every update leaves a leaf in.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro import prepare_trees
from repro.datagen import build_tree, paper_maps
from repro.geometry import BoxTable, Rect
from repro.rtree import RStarTree, str_bulk_load, tree_stats
from repro.rtree.entry import Entry
from repro.rtree.node import Node, NodeRows

#: The list-of-``Entry`` leaves traced ~232 B a data entry at this scale,
#: the packed ``(4, n)`` blocks ~72 B; the row ranges trace ~30 B.
MAX_BYTES_PER_ENTRY = 40
#: Both trees plus ``prepare_trees``' page store: ~85 B with the packed
#: blocks (one more array a leaf after the sort), ~36 B as row ranges.
MAX_PREPARED_BYTES_PER_ENTRY = 45


def leaves(tree):
    return [node for node in tree.nodes() if node.is_leaf]


def test_a_bulk_built_tree_traces_at_most_40_bytes_a_data_entry():
    map1 = paper_maps(scale=0.05, seed=42)[0]
    map1.table()  # built before tracing: the tree references it, copies none
    tracemalloc.start()
    try:
        tree = build_tree(map1)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.size == len(map1) > 6000
    assert traced / tree.size <= MAX_BYTES_PER_ENTRY


def test_two_prepared_trees_trace_at_most_45_bytes_a_data_entry():
    maps = paper_maps(scale=0.05, seed=42)
    tracemalloc.start()
    try:
        trees = [build_tree(data) for data in maps]
        store = prepare_trees(*trees)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = sum(tree.size for tree in trees)
    pages = [tree_stats(tree) for tree in trees]
    assert store.page_count == sum(t.data_pages + t.directory_pages for t in pages)
    assert traced / entries <= MAX_PREPARED_BYTES_PER_ENTRY


def test_a_build_makes_no_entry_per_data_row(monkeypatch):
    map1 = paper_maps(scale=0.02, seed=42)[0]
    made = []
    init = Entry.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Entry, "__init__", counting)
    tree = build_tree(map1)
    stats = tree_stats(tree)
    assert len(made) <= stats.data_pages + stats.directory_pages < tree.size
    # the guard is live: the API edge makes one a row
    assert len(list(tree.data_entries())) == tree.size
    assert len(made) > tree.size


def assert_packed(tree):
    """Every leaf is a row range and only a row range; every directory
    node is an entry list."""
    for node in tree.nodes():
        if node.is_leaf:
            assert not hasattr(node, "entries")
            assert isinstance(node.table, BoxTable)
            assert node.order.dtype == np.int64
            assert 0 <= node.lo <= node.hi <= len(node.order)
            assert node.boxes.shape == (4, len(node.oids))
            assert node.boxes.dtype == np.float64
            assert node.oids.dtype in (np.int64, object)
            if len(node):
                xl, yl, xu, yu = node.boxes.tolist()
                assert node.mbr == (min(xl), min(yl), max(xu), max(yu))
        else:
            assert not hasattr(node, "boxes")
            assert not hasattr(node, "order")
            assert all(isinstance(entry, Entry) for entry in node.entries)


def random_updates(tree, live, rng, steps=600):
    """*steps* random inserts and deletes on *tree*, whose data entries
    are *live* (oid -> Rect) and stay so."""
    for step in range(steps):
        if live and rng.random() < 0.35:
            oid = rng.choice(sorted(live))
            assert tree.delete(oid, live.pop(oid))
        else:
            x, y = rng.uniform(0, 50), rng.uniform(0, 50)
            oid = step
            live[oid] = Rect(x, y, x + rng.uniform(0, 2), y + rng.uniform(0, 2))
            tree.insert(oid, live[oid])
    tree.validate()
    assert_packed(tree)
    assert sorted(e.oid for e in tree.data_entries()) == sorted(live)


def test_updates_keep_every_leaf_a_block():
    tree = RStarTree(data_capacity=6, dir_capacity=4)
    random_updates(tree, {}, random.Random(11))
    assert {type(oid) for leaf in leaves(tree) for oid in leaf.oids.tolist()} == {int}


def test_updates_on_a_bulk_loaded_tree_keep_its_leaves_row_ranges():
    """Split, forced reinsert, delete and condense all run on leaves that
    are row ranges of the map's table."""
    rng = random.Random(12)
    live = {}
    for oid in range(10_000, 10_300):
        x, y = rng.uniform(0, 50), rng.uniform(0, 50)
        live[oid] = Rect(x, y, x + rng.uniform(0, 2), y + rng.uniform(0, 2))
    table = BoxTable.from_items(live.items())
    tree = str_bulk_load(table, data_capacity=6, dir_capacity=4)
    assert {leaf.table for leaf in leaves(tree)} == {table}
    random_updates(tree, live, rng)
    kinds = {leaf.table is table for leaf in leaves(tree)}
    assert kinds == {True, False}  # range leaves survived next to updated ones


def test_sorting_a_leaf_by_xl_is_stable_and_keeps_its_mbr():
    boxes = np.array([[3.0, 1.0, 3.0, 1.0], [0.0, 1.0, 2.0, 3.0],
                      [4.0, 2.0, 5.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
    leaf = Node.leaf(boxes, np.array([10, 11, 12, 13]))
    mbr = leaf.mbr
    leaf.sort_entries_by_xl()
    assert leaf.oids.tolist() == [11, 13, 10, 12]
    assert leaf.boxes[0].tolist() == [1.0, 1.0, 3.0, 3.0]
    assert leaf.mbr == mbr == (1.0, 0.0, 5.0, 4.0)


def test_preparing_sorts_each_leaf_as_its_own_stable_sort_would():
    """Ties on ``xl`` keep their leaf order, and a leaf an update moved
    to a table of its own leaves a gap the sort steps over."""
    rng = random.Random(5)
    items = []
    for oid in range(200):
        x, y = float(rng.randrange(4)), rng.uniform(0, 50)
        items.append((oid, Rect(x, y, x + rng.choice((1.0, 2.0)), y + 1.0)))
    tree = str_bulk_load(items, data_capacity=6, dir_capacity=4)
    assert tree.delete(*items[0])
    found = leaves(tree)
    expected = [sorted(leaf.rows(), key=lambda row: row[0]) for leaf in found]
    assert [leaf.rows() for leaf in found] != expected
    prepare_trees(tree, tree)
    assert [leaf.rows() for leaf in found] == expected
    tree.validate()


def test_leaf_rows_read_each_leaf_once_while_it_is_kept():
    leaf = Node(0, [Entry(0.0, 0.0, 1.0, 1.0, oid=7)])
    rows = NodeRows()
    first = rows(leaf)
    assert first == [(0.0, 0.0, 1.0, 1.0, 7)] == leaf.rows()
    assert rows(leaf) is first
    assert leaf.rows() is not first


class TestLeafValidatesItsBlock:
    """``Node.leaf`` reads its block as a one-leaf ``BoxTable``, so it
    refuses what the table refuses."""

    def test_lengths_that_differ_are_refused(self):
        with pytest.raises(ValueError, match="one length"):
            Node.leaf(np.zeros((4, 3)), np.array([1, 2]))

    @pytest.mark.parametrize(
        "box", [(0.0, 0.0, float("nan"), 1.0), (2.0, 0.0, 1.0, 1.0)], ids=["nan", "inverted"]
    )
    def test_a_nan_or_inverted_box_is_refused(self, box):
        with pytest.raises(ValueError, match="non-finite or inverted"):
            Node.leaf(np.array(box).reshape(4, 1), np.array([1]))


class TestTheTreePointsAtItsInput:
    @pytest.fixture(scope="class")
    def map1(self):
        return paper_maps(scale=0.02, seed=42)[0]

    def test_every_leaf_reads_the_table_it_was_built_from(self, map1):
        table = map1.table()
        tree = build_tree(map1)
        assert all(leaf.table is table for leaf in leaves(tree))

    def test_the_leaves_tile_one_permutation(self, map1):
        tree = build_tree(map1)
        found = leaves(tree)
        order = found[0].order
        assert all(leaf.order is order for leaf in found)
        ranges = sorted((leaf.lo, leaf.hi) for leaf in found)
        assert ranges[0][0] == 0 and ranges[-1][1] == len(order) == len(map1)
        # no gap and no overlap: each range starts where the last ends
        assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))
        assert np.array_equal(np.sort(order), np.arange(len(map1)))

    def test_build_and_prepare_never_write_the_table(self, map1):
        table = map1.table()
        before = [getattr(table, name).copy() for name in ("oids", "xl", "yl", "xu", "yu")]
        tree = build_tree(map1)
        prepare_trees(tree, tree)
        for column, copy in zip((table.oids, table.xl, table.yl, table.xu, table.yu), before):
            assert not column.flags.writeable
            assert np.array_equal(column, copy)

    def test_preparing_one_tree_leaves_another_of_the_same_table_alone(self, map1):
        one, other = build_tree(map1), build_tree(map1)
        assert leaves(one)[0].order is not leaves(other)[0].order
        rows = [leaf.rows() for leaf in leaves(other)]
        unsorted = [leaf.rows() for leaf in leaves(one)]
        prepare_trees(one, one)
        assert [leaf.rows() for leaf in leaves(other)] == rows
        assert [leaf.rows() for leaf in leaves(one)] != unsorted  # the sort ran
