"""Columnar answers: the result currency of the kernels, drivers and tiers.

What :class:`~repro.geometry.table.BoxTable` is on the way in, these are
on the way out: a window or kNN answer is a :class:`RowSet` (one oid
column, plus a ``float64`` distance column for kNN), a join answer a
:class:`PairTable` (two oid columns).  An oid column is ``int64`` when the
relation's oids are builtin ints and ``object`` dtype otherwise
(:func:`oid_column`), so numpy's gather / sort / unique / concatenate
serve both with one code path.

Each is a read-only :class:`~collections.abc.Sequence` that compares
equal to the tuple or list of rows it stands for, and pickles as its raw
column buffers.  Builtin ``int`` / ``float`` / tuples are made only when a
caller iterates or indexes it — nothing between a kernel and the API edge
does — and iteration makes them :data:`ITER_BLOCK` rows at a time.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from itertools import chain
from typing import Iterable

import numpy as np

__all__ = ["oid_column", "ColumnRows", "RowSet", "PairTable"]

#: Rows made per step when a table is iterated: the builtin rows of one
#: block at a time are alive, never every row at once.
ITER_BLOCK = 1 << 12


def oid_column(oids: Iterable) -> np.ndarray:
    """*oids* as one column: ``int64`` when every one is a builtin int
    that fits, ``object`` dtype (the oids themselves) otherwise.  An
    array that already is such a column is returned as it is."""
    if isinstance(oids, np.ndarray):
        if oids.dtype in (np.int64, object):
            return oids
        oids = oids.tolist()  # builtin objects, not numpy scalars
    oids = oids if isinstance(oids, (list, tuple)) else list(oids)
    if set(map(type, oids)) <= {int}:
        try:
            return np.fromiter(oids, dtype=np.int64, count=len(oids))
        except OverflowError:
            pass
    return np.fromiter(oids, dtype=object, count=len(oids))


class ColumnRows(Sequence):
    """Rows over equal-length columns.  A subclass takes its columns as
    positional constructor arguments and says in :meth:`_rows` what one
    row is as a builtin object."""

    __slots__ = ("_columns",)
    __hash__ = None  # compares by content, like the list it stands for

    def __init__(self, *columns):
        self._columns = tuple(np.asarray(c).view() for c in columns)
        for column in self._columns:
            column.setflags(write=False)

    def _rows(self) -> list:
        raise NotImplementedError

    def _like(self, *columns) -> "ColumnRows":
        return type(self)(*columns)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        """One row, or — for a slice, an index array or a mask — the
        table of those rows."""
        if isinstance(index, (slice, np.ndarray)):
            return self._like(*(c[index] for c in self._columns))
        index = operator.index(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("row index out of range")
        return self[index : index + 1]._rows()[0]

    def __iter__(self):
        n = len(self)
        return chain.from_iterable(
            self[lo : lo + ITER_BLOCK]._rows() for lo in range(0, n, ITER_BLOCK)
        )

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return len(self._columns) == len(other._columns) and all(
                np.array_equal(a, b) for a, b in zip(self._columns, other._columns)
            )
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and self._rows() == list(other)

    def __reduce__(self):
        return type(self), self._columns

    def __repr__(self) -> str:
        dtypes = ", ".join(str(c.dtype) for c in self._columns)
        return f"<{type(self).__name__} {len(self)} rows ({dtypes})>"


class RowSet(ColumnRows):
    """One oid per row — a window answer — or, with *distances*, one
    ``(distance, oid)`` per row — a kNN answer."""

    __slots__ = ()

    def __init__(self, oids, distances=None):
        super().__init__(*((oids,) if distances is None else (oids, distances)))

    @classmethod
    def from_oids(cls, oids: Iterable) -> "RowSet":
        return cls(oid_column(oids))

    @classmethod
    def from_knn(cls, found: Iterable) -> "RowSet":
        """From ``(distance, oid)`` pairs."""
        found = list(found)
        return cls(
            oid_column([oid for _, oid in found]),
            np.array([d for d, _ in found], dtype=np.float64),
        )

    @classmethod
    def union(cls, parts: Iterable["RowSet"]) -> "RowSet":
        """Every oid of *parts* once, ascending."""
        columns = [part.oids for part in parts]
        if not columns:
            return cls.from_oids(())
        return cls(np.unique(np.concatenate(columns)))

    @property
    def oids(self) -> np.ndarray:
        return self._columns[0]

    @property
    def distances(self):
        return self._columns[1] if len(self._columns) > 1 else None

    def sorted(self) -> "RowSet":
        """The oids ascending (a window answer's canonical order)."""
        return RowSet(np.sort(self.oids))

    def _rows(self) -> list:
        oids = self.oids.tolist()
        if self.distances is None:
            return oids
        return list(zip(self.distances.tolist(), oids))


class PairTable(ColumnRows):
    """One ``(left oid, right oid)`` per row: a join answer."""

    __slots__ = ()

    def __init__(self, left, right):
        super().__init__(left, right)

    @classmethod
    def from_oids(cls, left: Iterable, right: Iterable) -> "PairTable":
        """From the left and the right oid of every row, as two
        equal-length iterables — how a traversal collects its answer."""
        return cls(oid_column(left), oid_column(right))

    @classmethod
    def from_pairs(cls, pairs: Iterable) -> "PairTable":
        """From 2-item rows (tuples or lists)."""
        pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        # Two flat lists, no per-row container: ``zip(*pairs)`` makes one
        # iterator a row, enough allocations to set off full collections.
        return cls.from_oids(
            [left for left, _ in pairs], [right for _, right in pairs]
        )

    @classmethod
    def concat(cls, parts: Iterable) -> "PairTable":
        """The rows of every part in order; a part is a table or any
        sequence of 2-item rows."""
        tables = [
            part if isinstance(part, cls) else cls.from_pairs(part) for part in parts
        ]
        if len(tables) == 1:
            return tables[0]
        if not tables:
            return cls.from_pairs(())
        return cls(
            np.concatenate([table.left for table in tables]),
            np.concatenate([table.right for table in tables]),
        )

    @property
    def left(self) -> np.ndarray:
        return self._columns[0]

    @property
    def right(self) -> np.ndarray:
        return self._columns[1]

    def sorted(self) -> "PairTable":
        """The rows in ascending ``(left, right)`` order."""
        return self[np.lexsort((self.right, self.left))]

    def _rows(self) -> list:
        return list(zip(self.left.tolist(), self.right.tolist()))
