"""Columnar ingest: builders fed a BoxTable build the trees they built
from ``(oid, rect)`` items — same arrays, the same node tree node for
node — reject bad boxes at the boundary, and make no per-object ``Rect``
or ``SpatialObject`` anywhere between the generators and the trees."""

import gc
import hashlib
import math
import struct
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import SpatialObject, build_tree, paper_maps
from repro.datagen.maps import DIR_FILL, LEAF_FILL
from repro.geometry import BoxTable, Rect
import repro.rtree.bulk as bulk_module
from repro.rtree import (
    Entry, FlatRTree, RStarTree, build_flat_tree, str_bulk_load, tree_stats,
)
from repro.shard import ShardConfig, ShardRouter


@pytest.fixture(scope="module")
def maps():
    return paper_maps(scale=0.02, seed=42)


def leaf_rows(leaf):
    """A leaf's entries read through its block, each as its oid and its
    four coordinates."""
    return [(oid, xl, yl, xu, yu) for xl, yl, xu, yu, oid in leaf.rows()]


def leaf_sequence(tree):
    """Every leaf's entries, left to right, plus each node's level."""
    leaves, levels = [], []

    def walk(node):
        levels.append(node.level)
        if node.level == 0:
            leaves.append(leaf_rows(node))
        else:
            for entry in node.entries:
                walk(entry.child)

    walk(tree.root)
    return leaves, levels


class TestSameTrees:
    def test_map_table_holds_the_items(self, maps):
        for data in maps:
            assert data.table().items() == data.items()
            assert data.table() is data.table()  # the map is this one table
            assert data.items() is not data.items()  # the object edge: per call
            # ...and the map holds no object list after items() / objects
            first = weakref.ref(data.objects[0])
            assert [o.oid for o in data.objects] == data.table().oids.tolist()
            assert first() is None
            assert not any(
                isinstance(value, (list, tuple, dict)) for value in vars(data).values()
            )

    def test_flat_tree_from_table_equals_tree_from_items(self, maps):
        for data in maps:
            from_items = FlatRTree.build(data.items())
            for tree in (FlatRTree.build(data.table()), build_flat_tree(data)):
                assert tree.table is data.table()
                for column in ("rows", "xmin", "ymin", "xmax", "ymax", "level_offsets"):
                    assert np.array_equal(
                        getattr(tree, column), getattr(from_items, column)
                    ), column
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
        flat_oids = sorted(flat.table.oids[flat.rows])
        assert flat_oids == sorted(oid for oid, _ in items)
        node = str_bulk_load(BoxTable.from_items(items))
        leaves, _ = leaf_sequence(node)
        assert sorted(row[0] for leaf in leaves for row in leaf) == flat_oids


def node_sequence(tree):
    """Every node depth-first: its level and its entries in order, each
    with all four coordinates and its oid (None on a directory entry)."""
    nodes, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        if node.level:
            rows = [(e.oid, e.xl, e.yl, e.xu, e.yu) for e in node.entries]
            stack.extend(entry.child for entry in reversed(node.entries))
        else:
            rows = leaf_rows(node)
        nodes.append((node.level, rows))
    return nodes


def reference_leaves(table, per_node, min_count):
    """The leaf level as the list-sorting ``_pack_level`` tiles it: one
    data entry a row, sorted by ``sorted(key=_center_x)`` and
    ``slab.sort(key=_center_y)``."""
    entries = [Entry.for_object(rect, oid) for oid, rect in table.items()]
    return bulk_module._cover(bulk_module._pack_level(entries, 0, per_node, min_count))


def assert_leaf_packer_parity(table, **options):
    """The column leaf packer against its reference, the same build with
    its leaf level tiled by :func:`reference_leaves`."""
    packed = str_bulk_load(table, **options)
    with mock.patch.object(bulk_module, "_pack_leaves", reference_leaves):
        reference = str_bulk_load(table, **options)
    assert (packed.height, packed.size) == (reference.height, reference.size)
    assert node_sequence(packed) == node_sequence(reference)
    packed.validate()
    return packed


def tied_table(n, seed=0, xs=4, ys=4):
    """*n* boxes whose centers take only ``xs * ys`` distinct values, in a
    shuffled row order: nearly every comparison in either sort is a tie."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, xs, size=n).astype(float)
    y = rng.integers(0, ys, size=n).astype(float)
    return BoxTable(range(n), x, y, x + 1.0, y + 1.0)


#: data_capacity 26 → min_data 10; fill 0.3 → per_leaf 10; 19 rows want two
#: leaves but can fill only one: the ``min_count`` branch of ``_node_count``.
FEASIBILITY = dict(fill=0.3)
SMALL_PAGES = dict(fill=0.5, dir_fill=0.6, data_capacity=8, dir_capacity=6)


class TestLeafPackerParity:
    """Where ties and edges live: the numpy sorts must reproduce the
    stable ``sorted(key=_center_x)`` / ``slab.sort(key=_center_y)``."""

    def test_paper_maps(self, maps):
        for data in maps:
            tree = assert_leaf_packer_parity(
                data.table(), fill=LEAF_FILL, dir_fill=DIR_FILL
            )
            assert node_sequence(tree) == node_sequence(build_tree(data))

    @pytest.mark.parametrize(
        "n, options",
        [(n, {}) for n in (0, 1, 18, 19, 37, 700)]  # per_leaf is 18
        + [(n, SMALL_PAGES) for n in (0, 1, 4, 5, 9, 333)]  # per_leaf is 4
        + [(n, FEASIBILITY) for n in (10, 11, 19, 25, 29, 451)],
    )
    def test_edge_counts_and_options(self, n, options):
        for xs, ys in ((4, 4), (1, 5), (5, 1), (1, 1)):
            tree = assert_leaf_packer_parity(tied_table(n, n, xs, ys), **options)
            assert tree.size == n

    def test_feasibility_branch_is_reached(self):
        tree = assert_leaf_packer_parity(tied_table(19), **FEASIBILITY)
        assert tree.height == 1 and len(tree.root) == 19

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
            max_size=150,
        ),
        st.sampled_from([{}, SMALL_PAGES, FEASIBILITY]),
        st.sampled_from(["xy", "x", "y"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_many_equal_centers(self, rows, options, tied):
        # duplicates throughout; "x" / "y" make that center all-equal
        x = [0.0 if tied == "x" else float(row[0]) for row in rows]
        y = [0.0 if tied == "y" else float(row[1]) for row in rows]
        w = [float(row[2]) for row in rows]
        oids = [("row", i) for i in range(len(rows))]
        table = BoxTable(
            oids, x, y, [a + b for a, b in zip(x, w)], [a + b for a, b in zip(y, w)]
        )
        assert_leaf_packer_parity(table, **options)

    def test_an_unstable_sort_is_caught(self, monkeypatch):
        table = tied_table(3000, seed=1)
        assert_leaf_packer_parity(table)
        argsort = np.argsort
        monkeypatch.setattr(
            np, "argsort", lambda a, kind=None, **kw: argsort(a, kind="quicksort", **kw)
        )
        with pytest.raises(AssertionError):
            assert_leaf_packer_parity(table)


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


class TestCollectorPause:
    """``str_bulk_load`` no longer pauses the cyclic collector; a build
    that fails still leaves it as it found it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_hostile_item(self, enabled):
        (gc.enable if enabled else gc.disable)()
        # None passes the table (any hashable is an oid); a data entry
        # needs one, so the node builder refuses it before packing
        items = [(i, Rect(i, i, i + 1, i + 1)) for i in range(50)]
        items[30] = (None, items[30][1])
        with pytest.raises(ValueError, match="row 30 has oid None"):
            str_bulk_load(items)
        assert gc.isenabled() is enabled


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


def test_set_up_makes_no_per_object_rect_or_spatial_object(monkeypatch):
    """The whole columnar path, generators included: ~5,000 objects go from
    ``paper_maps`` into the node trees, the flat trees and a shard router
    over a constant number of Rects (region bounds, bounding boxes) and
    not one SpatialObject."""
    made = {Rect: 0, SpatialObject: 0}
    for cls in made:
        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            made[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    maps = paper_maps(scale=0.02, seed=42)
    assert sum(len(data) for data in maps) > 5000
    for data in maps:
        assert len(build_tree(data)) == len(data)
        assert build_flat_tree(data).size == len(data)
    for backend in ("node", "flat"):
        ShardRouter.from_maps(
            {"map1": maps[0], "map2": maps[1]}, ShardConfig(backend=backend)
        )
    assert made[SpatialObject] == 0
    assert made[Rect] <= 64
    # the guard is live: the object edge does make them
    maps[0].objects
    assert made[SpatialObject] == len(maps[0]) <= made[Rect]


def test_no_builder_entry_point_reads_map_items():
    """``MapData.items()`` builds a 130k-tuple list per call; it is for
    oracles, examples and tests.  No file under ``src/repro`` reads it:
    every builder entry point takes ``MapData.table()``."""
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
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if call.search(line)
    ]
    assert hits == []


def tree_digest(tree) -> str:
    """sha-256 over every node depth-first: level, entry count, and each
    entry's four doubles + ``repr(oid)`` (None on a directory entry); a
    leaf's entries are read through its block."""
    digest = hashlib.sha256()
    for level, rows in node_sequence(tree):
        digest.update(struct.pack("<ii", level, len(rows)))
        for oid, *box in rows:
            digest.update(struct.pack("<4d", *box))
            digest.update(repr(oid).encode())
    return digest.hexdigest()


#: Recorded at PR 21 — the commit before the leaves' MBRs were reduced from
#: the sorted columns and ``BoxTable.oids`` became a column — at
#: ``paper_maps(0.09, 3)``, whose trees have the full-scale shape (height
#: 3): digest, then Table 1's height / data entries / data pages /
#: directory pages.
PINNED_TREES = [
    ("aef6320a56b7f18795149a4b797d460497e6c604da10bb3e7745cb969c8270d5", 3, 11830, 625, 10),
    ("8a814a7de1e05afebabd3404ab20fa1da610449e59da8e12228e41e861f1ff69", 3, 11458, 625, 10),
]


def test_the_node_trees_are_the_trees_built_before_pr_23():
    for data, (digest, *table1) in zip(paper_maps(scale=0.09, seed=3), PINNED_TREES):
        tree = build_tree(data)
        tree.validate()
        stats = tree_stats(tree)
        assert [
            stats.height, stats.data_entries, stats.data_pages, stats.directory_pages
        ] == table1
        assert tree_digest(tree) == digest
        assert {type(e.oid) for e in tree.data_entries()} == {int}


#: The insertion builds (``RStarTree.insert`` of every object in map
#: order) of ``paper_maps(0.02, 42)``: ChooseSubtree, forced reinsertion
#: and split decide every node, so any change to them moves the digest.
PINNED_INSERTION_TREES = [
    "5ea5136d60ff29fb7e6463a6a03c18a4bd6b94a21fe80fa35eae07b377f31505",
    "4cf95e3c7f5bfc12133b099a9ed94105d094f349f9a2fc2cce04d3ddd49cc81a",
]


def test_the_insertion_builds_are_pinned(maps):
    for data, digest in zip(maps, PINNED_INSERTION_TREES):
        tree = RStarTree()
        for oid, rect in data.items():
            tree.insert(oid, rect)
        tree.validate()
        assert len(tree) == len(data)
        assert tree_digest(tree) == digest
