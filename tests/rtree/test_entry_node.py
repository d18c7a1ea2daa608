"""Unit tests for R*-tree entries and nodes."""

import pytest

from repro.geometry import Rect
from repro.rtree import Entry, Node


class TestEntry:
    def test_data_entry(self):
        e = Entry.for_object(Rect(0, 0, 1, 1), oid="a")
        assert e.is_data
        assert e.oid == "a"
        assert e.child is None
        assert e.rect == Rect(0, 0, 1, 1)

    def test_child_entry(self):
        leaf = Node(0, [Entry.for_object(Rect(0, 0, 1, 1), oid="a")])
        e = Entry.for_child(leaf)
        assert not e.is_data
        assert e.child is leaf
        assert e.rect == Rect(0, 0, 1, 1)

    def test_must_be_exactly_one_kind(self):
        with pytest.raises(ValueError):
            Entry(0, 0, 1, 1)
        with pytest.raises(ValueError):
            Entry(0, 0, 1, 1, child=Node(0), oid="a")

    def test_area_margin(self):
        e = Entry.for_object(Rect(0, 0, 2, 3), oid=1)
        assert e.area() == 6.0
        assert e.margin() == 5.0

    def test_intersects(self):
        a = Entry.for_object(Rect(0, 0, 2, 2), oid=1)
        b = Entry.for_object(Rect(1, 1, 3, 3), oid=2)
        c = Entry.for_object(Rect(5, 5, 6, 6), oid=3)
        assert a.intersects(b)
        assert not a.intersects(c)

    def test_intersects_rect_ducktyped(self):
        e = Entry.for_object(Rect(0, 0, 2, 2), oid=1)
        assert e.intersects(Rect(1, 1, 3, 3))

    def test_enlargement(self):
        a = Entry.for_object(Rect(0, 0, 1, 1), oid=1)
        assert a.enlargement(Entry.for_object(Rect(0, 0, 1, 1), oid=2)) == 0.0
        assert a.enlargement(Entry.for_object(Rect(2, 0, 3, 1), oid=2)) == pytest.approx(2.0)

    def test_extend(self):
        a = Entry.for_object(Rect(0, 0, 1, 1), oid=1)
        a.extend(Entry.for_object(Rect(2, -1, 3, 0.5), oid=2))
        assert a.rect == Rect(0, -1, 3, 1)

    def test_set_mbr(self):
        a = Entry.for_object(Rect(0, 0, 1, 1), oid=1)
        a.set_mbr(5, 5, 6, 6)
        assert a.rect == Rect(5, 5, 6, 6)

    def test_center(self):
        assert Entry.for_object(Rect(0, 0, 2, 4), oid=1).center() == (1.0, 2.0)


class TestNode:
    def test_leaf_flag(self):
        assert Node(0).is_leaf
        assert not Node(1).is_leaf

    def test_mbr_tuple(self):
        node = Node(
            0,
            [
                Entry.for_object(Rect(0, 0, 1, 1), oid=1),
                Entry.for_object(Rect(2, -1, 3, 0.5), oid=2),
            ],
        )
        assert node.mbr_tuple() == (0, -1, 3, 1)

    def test_empty_mbr_raises(self):
        with pytest.raises(ValueError):
            Node(0).mbr_tuple()

    def test_children(self):
        leaf1 = Node(0, [Entry.for_object(Rect(0, 0, 1, 1), oid=1)])
        leaf2 = Node(0, [Entry.for_object(Rect(2, 2, 3, 3), oid=2)])
        parent = Node(1, [Entry.for_child(leaf1), Entry.for_child(leaf2)])
        assert parent.children() == [leaf1, leaf2]

    def test_sort_entries_by_xl(self):
        node = Node(
            0,
            [
                Entry.for_object(Rect(5, 0, 6, 1), oid=1),
                Entry.for_object(Rect(0, 0, 1, 1), oid=2),
                Entry.for_object(Rect(3, 0, 4, 1), oid=3),
            ],
        )
        node.sort_entries_by_xl()
        assert node.oids.tolist() == [2, 3, 1]
        assert node.boxes[0].tolist() == [0.0, 3.0, 5.0]

    def test_len(self):
        assert len(Node(0, [Entry.for_object(Rect(0, 0, 1, 1), oid=1)])) == 1
