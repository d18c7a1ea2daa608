"""Columnar boxes: the ingest currency of the builders and the partitioner.

A :class:`BoxTable` holds one dataset as five columns: the ``int64``
object identifiers and four ``float64`` columns ``xl / yl / xu / yu`` —
row *i* is the box of ``oids[i]``.  Everything that reads a whole dataset
(the flat and STR tree builders, :class:`~repro.shard.partition.Partitioner`,
:func:`~repro.shard.partition.partition_rows`) reads it in this shape, so
set-up never walks per-object ``(oid, Rect)`` tuples; :class:`Rect`
objects and builtin oids are made only at the API edge
(:meth:`BoxTable.items`, :func:`bounding_box`).

The constructor is the input boundary: it rejects an oid that is no
``int64`` integer (:func:`require_oids`), non-finite coordinates and
inverted boxes once, so the array kernels below it never see a NaN.
A table pickles as its five raw column buffers and comes back through
that same constructor.

A tree references the table it was built from and copies none of it: a
:class:`~repro.rtree.flat.FlatRTree` reads it through ``rows``, a node
R*-tree's data pages through row ranges of one permutation.  The columns
are read-only views, so no tree writes them; a caller who writes through
the base arrays of its own table changes the table under every tree
built from it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .rect import Rect

__all__ = ["BoxTable", "bounding_box", "box_centers", "require_box"]

COLUMNS = ("xl", "yl", "xu", "yu")
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def require_oids(oids) -> np.ndarray:
    """*oids* as the ``int64`` oid column — the one input rule for object
    ids, of a table and of a tree update alike: each is a Python or numpy
    integer, not a ``bool``, within the ``int64`` range.  Raise
    ``ValueError`` naming the first row that breaks it."""
    if isinstance(oids, np.ndarray) and oids.dtype.kind in "iu":
        if oids.dtype != np.uint64 or not (oids > INT64_MAX).any():
            return oids.astype(np.int64, copy=False)
    oids = oids.tolist() if isinstance(oids, np.ndarray) else list(oids)
    if set(map(type, oids)) <= {int}:  # builtin ints: only the range to check
        try:
            return np.array(oids, dtype=np.int64)
        except OverflowError:
            pass
    for row, oid in enumerate(oids):
        if (
            isinstance(oid, bool)
            or not isinstance(oid, (int, np.integer))
            or not INT64_MIN <= oid <= INT64_MAX
        ):
            raise ValueError(f"row {row} has oid {oid!r}: an oid is an int64 integer")
    return np.array(oids, dtype=np.int64)


def require_boxes(oids: np.ndarray, xl, yl, xu, yu) -> None:
    """Raise ``ValueError`` naming the first row of the four ``float64``
    columns whose box is non-finite or inverted — the one input rule for
    boxes, of a table and of a tree update alike."""
    # NaN fails both comparisons; the infinities need their own test.
    valid = (xl <= xu) & (yl <= yu)
    for column in (xl, yl, xu, yu):
        valid &= np.isfinite(column)
    if not valid.all():
        row = int(np.argmin(valid))
        raise ValueError(
            f"object {int(oids[row])} has a non-finite or inverted box "
            f"({xl[row]}, {yl[row]}, {xu[row]}, {yu[row]})"
        )


def require_box(oid: int, box) -> None:
    """The table's rules for one object and its box (anything with ``xl,
    yl, xu, yu``): an ``int64`` oid and a finite, upright box."""
    BoxTable([oid], [box.xl], [box.yl], [box.xu], [box.yu])


def bounding_box(xl, yl, xu, yu) -> Rect:
    """The MBR of the boxes in four (non-empty) coordinate columns."""
    return Rect(xl.min(), yl.min(), xu.max(), yu.max())


def box_centers(xl, yl, xu, yu) -> tuple[np.ndarray, np.ndarray]:
    """The ``(x, y)`` columns of the centers of the boxes in four columns."""
    return (xl + xu) / 2.0, (yl + yu) / 2.0


class BoxTable:
    """The oid column plus the four coordinate columns of the boxes."""

    __slots__ = ("oids", *COLUMNS)

    def __init__(self, oids: Sequence[int], xl, yl, xu, yu):
        # Read-only views: one table is shared by every builder, and the
        # caller's own arrays stay writable.
        self.oids = require_oids(oids).view()
        columns = [np.asarray(c, dtype=np.float64).view() for c in (xl, yl, xu, yu)]
        shape = (len(self.oids),)
        if any(column.shape != shape for column in (self.oids, *columns)):
            raise ValueError("oids and the four columns must have one length")
        self.xl, self.yl, self.xu, self.yu = columns
        for column in (self.oids, *columns):
            column.setflags(write=False)
        require_boxes(self.oids, *columns)

    @classmethod
    def from_rects(cls, oids: Sequence[int], rects: Sequence) -> "BoxTable":
        """Row *i* is ``oids[i]`` with the box of ``rects[i]`` (anything
        exposing ``xl, yl, xu, yu``)."""
        n = len(rects)
        return cls(
            oids,
            np.fromiter((r.xl for r in rects), np.float64, count=n),
            np.fromiter((r.yl for r in rects), np.float64, count=n),
            np.fromiter((r.xu for r in rects), np.float64, count=n),
            np.fromiter((r.yu for r in rects), np.float64, count=n),
        )

    @classmethod
    def from_items(cls, items) -> "BoxTable":
        """*items* as a table: a table is returned as it is, anything else
        is read as ``(oid, rect)`` pairs."""
        if isinstance(items, cls):
            return items
        items = list(items)
        return cls.from_rects([oid for oid, _ in items], [r for _, r in items])

    @classmethod
    def concat(cls, tables: Iterable["BoxTable"]) -> "BoxTable":
        """The rows of every table, in order."""
        tables = list(tables)
        return cls(
            *(
                np.concatenate([getattr(table, name) for table in tables])
                for name in ("oids", *COLUMNS)
            )
        )

    def take(self, rows) -> "BoxTable":
        """The table of *rows* (any integer index sequence), in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return BoxTable(
            self.oids[rows], self.xl[rows], self.yl[rows], self.xu[rows], self.yu[rows]
        )

    def append(self, rows, oid: int, box) -> "BoxTable":
        """The table of *rows* (as :meth:`take`), then one row: *oid* with
        *box* (anything with ``xl, yl, xu, yu``), which the caller has
        held to the rules (:func:`require_box`).  No row is checked
        again: each already was."""
        rows = np.asarray(rows, dtype=np.intp)
        table = BoxTable.__new__(BoxTable)
        for name, value in zip(("oids", *COLUMNS), (oid, box.xl, box.yl, box.xu, box.yu)):
            column = np.concatenate((getattr(self, name)[rows], (value,)))
            column.setflags(write=False)
            setattr(table, name, column)
        return table

    def bbox(self) -> Rect:
        """The MBR of every box; an empty table has none."""
        if not len(self):
            raise ValueError("an empty table has no bounding box")
        return bounding_box(self.xl, self.yl, self.xu, self.yu)

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(x, y)`` columns of the box centers."""
        return box_centers(self.xl, self.yl, self.xu, self.yu)

    def items(self) -> list[tuple[int, Rect]]:
        """The rows as ``(oid, Rect)`` pairs — the object edge."""
        boxes = zip(
            self.xl.tolist(), self.yl.tolist(), self.xu.tolist(), self.yu.tolist()
        )
        return [(oid, Rect(*box)) for oid, box in zip(self.oids.tolist(), boxes)]

    def __reduce__(self):
        return BoxTable, (self.oids, self.xl, self.yl, self.xu, self.yu)

    def __len__(self) -> int:
        return len(self.oids)

    def __repr__(self) -> str:
        return f"<BoxTable {len(self.oids)} rows>"
