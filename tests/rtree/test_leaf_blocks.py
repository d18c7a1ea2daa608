"""A data page is a packed block.

A node R*-tree's leaf holds its data entries as one ``(4, n)`` ``float64``
box block plus an oid column, and nothing else: no ``Entry`` per data
row is built or kept.  Pinned here without a wall clock: the bytes a
bulk-built tree traces per data entry, the ``Entry`` objects a build
constructs, and the shape every update leaves a leaf in.
"""

import random
import tracemalloc

import numpy as np

from repro.datagen import build_tree, paper_maps
from repro.geometry import Rect
from repro.rtree import RStarTree, tree_stats
from repro.rtree.entry import Entry
from repro.rtree.node import LeafRows, Node

#: The list-of-``Entry`` leaves traced ~232 B a data entry at this scale.
MAX_BYTES_PER_ENTRY = 100


def leaves(tree):
    return [node for node in tree.nodes() if node.is_leaf]


def test_a_bulk_built_tree_traces_at_most_100_bytes_a_data_entry():
    map1 = paper_maps(scale=0.05, seed=42)[0]
    map1.table()  # the map's own columns are not the tree's
    tracemalloc.start()
    try:
        tree = build_tree(map1)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.size == len(map1) > 6000
    assert traced / tree.size <= MAX_BYTES_PER_ENTRY


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
    """Every leaf is a block and only a block; every directory node is an
    entry list."""
    for node in tree.nodes():
        if node.is_leaf:
            assert not hasattr(node, "entries")
            assert node.boxes.shape == (4, len(node.oids))
            assert node.boxes.dtype == np.float64
            assert node.oids.dtype in (np.int64, object)
            if len(node):
                xl, yl, xu, yu = node.boxes.tolist()
                assert node.mbr == (min(xl), min(yl), max(xu), max(yu))
        else:
            assert not hasattr(node, "boxes")
            assert all(isinstance(entry, Entry) for entry in node.entries)


def test_updates_keep_every_leaf_a_block():
    rng = random.Random(11)
    tree = RStarTree(data_capacity=6, dir_capacity=4)
    live = {}
    for step in range(600):
        if live and rng.random() < 0.35:
            oid = rng.choice(sorted(live, key=repr))
            assert tree.delete(oid, live.pop(oid))
        else:
            x, y = rng.uniform(0, 50), rng.uniform(0, 50)
            oid = step if step % 4 else f"s{step}"  # int64 and object leaves
            live[oid] = Rect(x, y, x + rng.uniform(0, 2), y + rng.uniform(0, 2))
            tree.insert(oid, live[oid])
    tree.validate()
    assert_packed(tree)
    assert sorted(map(repr, (e.oid for e in tree.data_entries()))) == sorted(
        map(repr, live)
    )
    assert {type(oid) for leaf in leaves(tree) for oid in leaf.oids.tolist()} == {
        int,
        str,
    }


def test_sorting_a_leaf_by_xl_is_stable_and_keeps_its_mbr():
    boxes = np.array([[3.0, 1.0, 3.0, 1.0], [0.0, 1.0, 2.0, 3.0],
                      [4.0, 2.0, 5.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
    leaf = Node.leaf(boxes, np.array([10, 11, 12, 13]))
    mbr = leaf.mbr
    leaf.sort_entries_by_xl()
    assert leaf.oids.tolist() == [11, 13, 10, 12]
    assert leaf.boxes[0].tolist() == [1.0, 1.0, 3.0, 3.0]
    assert leaf.mbr == mbr == (1.0, 0.0, 5.0, 4.0)


def test_leaf_rows_read_each_leaf_once_while_it_is_kept():
    leaf = Node(0, [Entry(0.0, 0.0, 1.0, 1.0, oid=7)])
    rows = LeafRows()
    first = rows(leaf)
    assert first == [(0.0, 0.0, 1.0, 1.0, 7)] == leaf.rows()
    assert rows(leaf) is first
    assert leaf.rows() is not first
