"""R*-tree nodes: one node corresponds to one 4 KB page.

A directory node holds a list of :class:`~repro.rtree.entry.Entry`
objects, one per child.  A data page (level 0) holds what the paper's
data entry holds — an MBR and a pointer to the object — as a *row range*:
positions ``[lo, hi)`` of a leaf-order permutation (``int64``, owned by
the tree) over the :class:`~repro.geometry.table.BoxTable` the tree was
built from.  Entry ``i`` of a leaf is table row ``order[lo + i]``; no
box or oid is copied into the tree.  A bulk-loaded tree's leaves tile one
permutation over the map's own table; a leaf that an insert, split or
delete changes gets the same shape over a one-leaf table of its own
(``order = arange(n)``).

The tree references its table, as a :class:`~repro.rtree.flat.FlatRTree`
does: the table's columns are read-only views, and a caller who writes
through the base arrays of its own table changes it under every tree
built from it.  Only the permutation is ever written (sorted leaf by
leaf, :func:`sort_leaves_by_xl`).

The join reads a page of either kind as rows of builtin tuples,
``(xl, yl, xu, yu, child)`` for a directory page and ``(xl, yl, xu, yu,
oid)`` for a data page (:meth:`Node.rows`; five gathers from the table
at a leaf), and keeps the last pages' rows in a :class:`NodeRows`: the
one plane sweep of :mod:`repro.geometry.planesweep` runs over them at
every level.  An :class:`Entry` per data row is made only at the API
edge (:meth:`Node.data_entries`) or for the one leaf an insert, split or
delete is changing.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..geometry.planesweep import restrict_rows
from ..geometry.table import BoxTable
from .entry import Entry

__all__ = ["Node", "NodeRows", "sort_leaves_by_xl"]

#: How many pages' rows a :class:`NodeRows` keeps: the full-scale
#: depth-first join reads each leaf in 4.2 leaf pairs close together,
#: and 32 pages catch all but 8 % of the re-reads.
ROWS_KEPT = 32


class Node:
    """A page of the R*-tree.

    ``level`` counts from the leaves up: 0 is a data page (leaf), the root
    has the highest level.  A directory node has ``entries``; a leaf has
    ``table``, ``order``, ``lo`` and ``hi`` instead — its rows are
    ``table`` rows ``order[lo:hi]`` — plus ``mbr``, their bounding box
    reduced once when the rows are set (None while there are none): the
    join reads a leaf pair's window from it at every visit.
    ``Node(0, entries)`` packs data entries into a one-leaf table;
    :meth:`leaf` wraps a ``(4, n)`` box block and its oids as one, and
    :meth:`over` takes a row range of a shared table.
    ``page_id`` is assigned when the tree is paginated onto the simulated
    disk array (see :mod:`repro.rtree.pagestore`); it stays None for
    purely in-memory use.
    """

    __slots__ = ("level", "entries", "table", "order", "lo", "hi", "mbr", "page_id")

    def __init__(self, level: int, entries: Optional[list[Entry]] = None):
        self.level = level
        self.page_id: Optional[int] = None
        if level:
            self.entries: list[Entry] = entries if entries is not None else []
        else:
            self.set_entries(entries or [])

    @classmethod
    def over(
        cls, table: BoxTable, order: np.ndarray, lo: int, hi: int, mbr=None
    ) -> "Node":
        """A data page over rows ``order[lo:hi]`` of *table*; *mbr*, when
        the caller has reduced it already, is their ``(xl, yl, xu, yu)``
        bounding box."""
        node = cls.__new__(cls)
        node.level = 0
        node.page_id = None
        node.set_rows(table, order, lo, hi, mbr)
        return node

    @classmethod
    def leaf(cls, boxes: np.ndarray, oids) -> "Node":
        """A data page over a ``(4, n)`` box block and its oid column, read
        as a one-leaf :class:`BoxTable` — so a block whose lengths differ,
        or that holds a non-finite or inverted box, is refused as the
        table refuses it."""
        table = BoxTable(oids, *boxes)
        return cls.over(table, np.arange(len(table), dtype=np.int64), 0, len(table))

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries) if self.level else self.hi - self.lo

    def set_entries(self, entries: list[Entry]) -> None:
        """Make *entries* this node's entries; a leaf packs the data
        entries into a one-leaf table."""
        if self.level:
            self.entries = entries
            return
        self.set_table(
            BoxTable(
                [e.oid for e in entries],
                [e.xl for e in entries],
                [e.yl for e in entries],
                [e.xu for e in entries],
                [e.yu for e in entries],
            )
        )

    def set_table(self, table: BoxTable) -> None:
        """Make every row of *table*, in table order, this leaf's
        entries."""
        self.set_rows(table, np.arange(len(table), dtype=np.int64), 0, len(table))

    def set_rows(
        self, table: BoxTable, order: np.ndarray, lo: int, hi: int, mbr=None
    ) -> None:
        """Make rows ``order[lo:hi]`` of *table* this leaf's entries, and
        *mbr* their MBR, or the one reduced here."""
        self.table = table
        self.order = order
        self.lo = lo
        self.hi = hi
        if mbr is None and hi > lo:
            xl, yl, xu, yu = self.boxes.tolist()
            mbr = (min(xl), min(yl), max(xu), max(yu))
        self.mbr = mbr

    @property
    def boxes(self) -> np.ndarray:
        """A leaf's ``(4, n)`` ``float64`` box block (rows ``xl, yl, xu,
        yu``), gathered from its table: a read-only copy."""
        rows = self.order[self.lo : self.hi]
        table = self.table
        block = np.stack([table.xl[rows], table.yl[rows], table.xu[rows], table.yu[rows]])
        block.setflags(write=False)
        return block

    @property
    def oids(self) -> np.ndarray:
        """A leaf's oid column, gathered from its table: a read-only
        copy."""
        column = self.table.oids[self.order[self.lo : self.hi]]
        column.setflags(write=False)
        return column

    def rows(self) -> list[tuple]:
        """The page's entries as tuples, in node order: ``(xl, yl, xu, yu,
        child)`` on a directory page, ``(xl, yl, xu, yu, oid)`` of builtin
        objects on a data page."""
        if self.level:
            return [(e.xl, e.yl, e.xu, e.yu, e.child) for e in self.entries]
        rows = self.order[self.lo : self.hi]
        table = self.table
        return list(
            zip(
                table.xl[rows].tolist(),
                table.yl[rows].tolist(),
                table.xu[rows].tolist(),
                table.yu[rows].tolist(),
                table.oids[rows].tolist(),
            )
        )

    def data_entries(self, window=None) -> list[Entry]:
        """A leaf's data entries — with *window* (anything with ``xl, yl,
        xu, yu``), those whose box meets it — as fresh :class:`Entry`
        objects in leaf order: the API edge, or the one leaf a tree
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
        else:
            sort_leaves_by_xl([self])

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"dir(level={self.level})"
        page = f" page={self.page_id}" if self.page_id is not None else ""
        return f"<Node {kind} {len(self)} entries{page}>"


def sort_leaves_by_xl(leaves: Iterable[Node]) -> None:
    """:meth:`Node.sort_entries_by_xl` for every leaf of *leaves*, in
    place in their permutations.  The leaves that share a permutation
    are sorted together by one stable ``argsort`` along the rows of a
    2-D key array, one row a leaf, padded with ``inf`` (a table holds
    finite boxes only, so the padding sorts last): the order a stable
    ``argsort`` of each leaf alone gives, and no array a leaf.  The
    tables are only read."""
    shared: dict[int, list[Node]] = {}
    for leaf in leaves:
        shared.setdefault(id(leaf.order), []).append(leaf)
    for group in shared.values():
        order, table = group[0].order, group[0].table
        lo = np.array([leaf.lo for leaf in group], dtype=np.int64)
        size = np.array([leaf.hi for leaf in group], dtype=np.int64) - lo
        width = np.arange(size.max())
        at = lo[:, None] + width  # a leaf's positions in the permutation
        real = width < size[:, None]
        keys = np.where(real, table.xl[order[np.where(real, at, 0)]], np.inf)
        by_xl = np.take_along_axis(at, np.argsort(keys, axis=1, kind="stable"), axis=1)
        order[at[real]] = order[by_xl[real]]


class NodeRows:
    """:meth:`Node.rows` for a traversal that reads the same pages again
    soon: the rows of the last :data:`ROWS_KEPT` pages read are kept,
    first in first out.  One traversal owns one; the trees must not
    change under it."""

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: dict[Node, list[tuple]] = {}

    def __call__(self, node: Node) -> list[tuple]:
        rows = self._rows.get(node)
        if rows is None:
            if len(self._rows) >= ROWS_KEPT:
                del self._rows[next(iter(self._rows))]
            rows = self._rows[node] = node.rows()
        return rows


def _entry_xl(entry: Entry) -> float:
    return entry.xl
