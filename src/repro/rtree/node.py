"""R*-tree nodes: one node corresponds to one 4 KB page.

A directory node holds a list of :class:`~repro.rtree.entry.Entry`
objects, one per child.  A data page (level 0) holds its data entries the
way the page does — packed: one ``(4, n)`` ``float64`` box block (rows
``xl, yl, xu, yu``) plus an oid column
(:func:`~repro.geometry.rows.oid_column`: ``int64``, or ``object`` dtype
for other oids).  Entry ``i`` of a leaf is column ``i`` of both.  The
readers take a leaf's rows as builtin tuples (:meth:`Node.rows`, one
``tolist`` a read; a join keeps the last leaves' rows in a
:class:`LeafRows`); an :class:`Entry` per data row is made only at the
API edge (:meth:`Node.data_entries`) or for the one leaf an insert, split
or delete is changing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..geometry.planesweep import restrict_rows
from ..geometry.rows import oid_column
from .entry import Entry

__all__ = ["Node", "LeafRows"]

#: How many leaves' rows a :class:`LeafRows` keeps: the full-scale
#: depth-first join reads each leaf in 4.2 leaf pairs close together,
#: and 32 leaves catch all but 8 % of the re-reads.
LEAF_ROWS_KEPT = 32


class Node:
    """A page of the R*-tree.

    ``level`` counts from the leaves up: 0 is a data page (leaf), the root
    has the highest level.  A directory node has ``entries``; a leaf has
    ``boxes`` and ``oids`` instead, plus ``mbr``, the block's bounding
    box reduced once when the block is set (None while it is empty): the
    join reads a leaf pair's window from it at every visit.
    ``Node(0, entries)`` packs data entries into a leaf's block;
    :meth:`leaf` wraps a block as it is.
    ``page_id`` is assigned when the tree is paginated onto the simulated
    disk array (see :mod:`repro.rtree.pagestore`); it stays None for
    purely in-memory use.
    """

    __slots__ = ("level", "entries", "boxes", "oids", "mbr", "page_id")

    def __init__(self, level: int, entries: Optional[list[Entry]] = None):
        self.level = level
        self.page_id: Optional[int] = None
        if level:
            self.entries: list[Entry] = entries if entries is not None else []
        else:
            self.set_entries(entries or [])

    @classmethod
    def leaf(cls, boxes: np.ndarray, oids: np.ndarray, mbr=None) -> "Node":
        """A data page over a ``(4, n)`` box block and its oid column;
        *mbr*, when the caller has reduced it already, is the block's
        ``(xl, yl, xu, yu)`` bounding box."""
        node = cls.__new__(cls)
        node.level = 0
        node.page_id = None
        node.set_block(boxes, oids, mbr)
        return node

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries) if self.level else len(self.oids)

    def set_entries(self, entries: list[Entry]) -> None:
        """Make *entries* this node's entries; a leaf packs the data
        entries into its block."""
        if self.level:
            self.entries = entries
            return
        boxes = np.array(
            [[e.xl for e in entries], [e.yl for e in entries],
             [e.xu for e in entries], [e.yu for e in entries]],
            dtype=np.float64,
        ).reshape(4, len(entries))
        self.set_block(boxes, oid_column([e.oid for e in entries]))

    def set_block(self, boxes: np.ndarray, oids: np.ndarray, mbr=None) -> None:
        """Make a ``(4, n)`` box block and its oid column this leaf's
        entries, and its MBR *mbr*, or the one reduced here."""
        self.boxes = boxes
        self.oids = oids
        if mbr is None and len(oids):
            xl, yl, xu, yu = boxes.tolist()
            mbr = (min(xl), min(yl), max(xu), max(yu))
        self.mbr = mbr

    def rows(self) -> list[tuple]:
        """A leaf's data entries as ``(xl, yl, xu, yu, oid)`` tuples of
        builtin objects, in block order."""
        return list(zip(*self.boxes.tolist(), self.oids.tolist()))

    def data_entries(self, window=None) -> list[Entry]:
        """A leaf's data entries — with *window* (anything with ``xl, yl,
        xu, yu``), those whose box meets it — as fresh :class:`Entry`
        objects in block order: the API edge, or the one leaf a tree
        update is changing."""
        rows = self.rows()
        if window is not None:
            rows = restrict_rows(rows, window.xl, window.yl, window.xu, window.yu)
        return [Entry(xl, yl, xu, yu, None, oid) for xl, yl, xu, yu, oid in rows]

    def mbr_tuple(self) -> tuple[float, float, float, float]:
        """The minimum bounding rectangle over all entries, as a tuple."""
        if not len(self):
            raise ValueError("empty node has no MBR")
        if not self.level:
            return self.mbr
        entries = self.entries
        first = entries[0]
        xl, yl, xu, yu = first.xl, first.yl, first.xu, first.yu
        for e in entries:
            if e.xl < xl:
                xl = e.xl
            if e.yl < yl:
                yl = e.yl
            if e.xu > xu:
                xu = e.xu
            if e.yu > yu:
                yu = e.yu
        return (xl, yl, xu, yu)

    def children(self) -> list["Node"]:
        """Child nodes (directory nodes only)."""
        return [e.child for e in self.entries]

    def sort_entries_by_xl(self) -> None:
        """Keep entries in plane-sweep order (the paper sorts node entries
        by the spatial location of their rectangles, section 2.2); the
        sort is stable on both kinds of node."""
        if self.level:
            self.entries.sort(key=_entry_xl)
            return
        order = np.argsort(self.boxes[0], kind="stable")
        self.set_block(self.boxes[:, order], self.oids[order], self.mbr)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"dir(level={self.level})"
        page = f" page={self.page_id}" if self.page_id is not None else ""
        return f"<Node {kind} {len(self)} entries{page}>"


class LeafRows:
    """:meth:`Node.rows` for a traversal that reads the same leaves again
    soon: the rows of the last :data:`LEAF_ROWS_KEPT` leaves read are
    kept, first in first out.  One traversal owns one; the trees must not
    change under it."""

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: dict[Node, list[tuple]] = {}

    def __call__(self, leaf: Node) -> list[tuple]:
        rows = self._rows.get(leaf)
        if rows is None:
            if len(self._rows) >= LEAF_ROWS_KEPT:
                del self._rows[next(iter(self._rows))]
            rows = self._rows[leaf] = leaf.rows()
        return rows


def _entry_xl(entry: Entry) -> float:
    return entry.xl
