"""Columnar ingest: builders fed a BoxTable build the trees they built
from ``(oid, rect)`` items — same arrays, same node-tree shape — reject
bad boxes at the boundary, and make no per-object ``Rect`` on the way."""

import math
import warnings

import numpy as np
import pytest

from repro.datagen import build_tree, paper_maps
from repro.datagen.maps import DIR_FILL, LEAF_FILL
from repro.geometry import BoxTable, Rect
from repro.rtree import FlatRTree, build_flat_tree, str_bulk_load


@pytest.fixture(scope="module")
def maps():
    return paper_maps(scale=0.02, seed=42)


def leaf_sequence(tree):
    """Every leaf's entries, left to right, plus each node's level."""
    leaves, levels = [], []

    def walk(node):
        levels.append(node.level)
        if node.level == 0:
            leaves.append([(e.oid, e.xl, e.yl, e.xu, e.yu) for e in node.entries])
        else:
            for entry in node.entries:
                walk(entry.child)

    walk(tree.root)
    return leaves, levels


def leaf_nodes(node):
    if node.level == 0:
        yield node
    else:
        for entry in node.entries:
            yield from leaf_nodes(entry.child)


class TestSameTrees:
    def test_map_table_holds_the_items(self, maps):
        for data in maps:
            assert data.table().items() == data.items()
            assert data.table() is not data.table()  # built per call, not kept

    def test_flat_tree_from_table_equals_tree_from_items(self, maps):
        for data in maps:
            from_items = FlatRTree.build(data.items())
            for tree in (FlatRTree.build(data.table()), build_flat_tree(data)):
                for column in ("xmin", "ymin", "xmax", "ymax", "level_offsets"):
                    assert np.array_equal(
                        getattr(tree, column), getattr(from_items, column)
                    ), column
                assert tree.oids == from_items.oids
                tree.validate()

    def test_str_bulk_load_table_keeps_the_leaf_sequence(self, maps):
        for data in maps:
            from_items = str_bulk_load(data.items(), fill=LEAF_FILL, dir_fill=DIR_FILL)
            for tree in (
                str_bulk_load(data.table(), fill=LEAF_FILL, dir_fill=DIR_FILL),
                build_tree(data),
            ):
                assert (tree.height, tree.size) == (from_items.height, from_items.size)
                assert leaf_sequence(tree) == leaf_sequence(from_items)
                tree.validate()

    def test_non_integer_oids_survive_both_builders(self):
        items = [(("k", i), Rect(i, i, i + 1.0, i + 2.0)) for i in range(40)]
        flat = FlatRTree.build(BoxTable.from_items(items))
        assert sorted(flat.oids) == sorted(oid for oid, _ in items)
        node = str_bulk_load(BoxTable.from_items(items))
        leaves, _ = leaf_sequence(node)
        assert sorted(row[0] for leaf in leaves for row in leaf) == sorted(flat.oids)


BUILDERS = [FlatRTree.build, str_bulk_load]


class TestBoundary:
    @pytest.mark.parametrize("build", BUILDERS)
    def test_nan_box_is_rejected_not_packed(self, build):
        items = [(0, Rect(0, 0, 1, 1)), (1, Rect(0, 0, math.nan, math.nan))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the old path warned twice and built
            with pytest.raises(ValueError, match="object 1 "):
                build(items)

    @pytest.mark.parametrize("build", BUILDERS)
    def test_infinite_box_is_rejected(self, build):
        items = [(0, Rect(0, 0, 1, 1)), (1, Rect(0, 0, 1, math.inf))]
        with pytest.raises(ValueError, match="object 1 "):
            build(items)

    @pytest.mark.parametrize("build", BUILDERS)
    def test_empty_input_builds_an_empty_tree(self, build):
        assert build([]).size == 0
        assert build(BoxTable.from_items([])).size == 0


def test_flat_build_makes_no_per_object_rect(monkeypatch):
    """The guard against the per-object path coming back: packing a
    5,000-row table constructs a constant number of Rects."""
    rng = np.random.default_rng(5)
    lo = rng.uniform(0.0, 100.0, size=(2, 5000))
    table = BoxTable(range(5000), lo[0], lo[1], lo[0] + 1.0, lo[1] + 1.0)
    made = []
    init = Rect.__init__

    def counting(self, *args):
        made.append(1)
        init(self, *args)

    monkeypatch.setattr(Rect, "__init__", counting)
    tree = FlatRTree.build(table)
    assert tree.size == 5000
    assert len(made) <= 4


def test_no_builder_entry_point_reads_map_items():
    """``MapData.items()`` rebuilds a 130k-tuple list per call; it is for
    oracles and examples.  Inside ``src/repro`` only ``build_tree``, next
    to its definition, reads it (node entries share the map's floats);
    every other builder entry point takes ``MapData.table()``."""
    import re
    from pathlib import Path

    import repro

    # the bare names that by convention hold one MapData (``maps`` is a
    # dict or a pair of them)
    call = re.compile(
        r"(?<![\w.])(map[12]|m[12]|map_data|data|maps\[\w+\])\.items\(\)"
    )
    root = Path(repro.__file__).parent
    hits = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).as_posix() != "datagen/maps.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if call.search(line)
    ]
    assert hits == []


def test_node_entries_share_the_floats_of_the_pairs_they_came_from():
    """``str_bulk_load`` over pairs copies no coordinate: every data entry
    holds the very float objects of its source ``Rect`` (96 B an entry at
    full scale is the join workload's resident memory)."""
    items = [(i, Rect(i + 0.25, i + 0.5, i + 1.25, i + 1.5)) for i in range(50)]
    by_oid = dict(items)
    tree = str_bulk_load(items)
    for leaf in leaf_nodes(tree.root):
        for entry in leaf.entries:
            rect = by_oid[entry.oid]
            assert entry.xl is rect.xl and entry.yu is rect.yu
