"""The node-level plane sweep of [BKS 93], section 2.2 of the paper.

Given two sequences of rectangles sorted by their lower x-coordinate, the
sweep computes all intersecting pairs *without building any dynamic sweep
structure*: the sweep line visits the rectangles of both sequences in
``xl``-order, and each visited rectangle ``t`` is tested only against the
rectangles of the *other* sequence whose x-interval reaches ``t``
(``xl <= t.xu``); for those, only the y-overlap remains to be checked.

The order in which pairs are emitted is the **local plane-sweep order**.
It matters beyond CPU cost: in the spatial join, the emitted pair sequence
*is* the order in which child pages are scheduled for reading, which keeps
spatially adjacent pages temporally adjacent in the LRU buffer.  The same
order drives task creation and task assignment of the parallel join
(sections 3.1 and 3.3).

Any object carrying the attributes ``xl, yl, xu, yu`` participates —
:class:`~repro.geometry.rect.Rect` as well as R*-tree entries;
:func:`sweep_rows` is the same sweep over tuples that start with those
four values, the rows a node tree's data page is read as.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

__all__ = [
    "x_sorted",
    "sweep_pairs",
    "sweep_rows",
    "SweepResult",
    "restrict_to_window",
    "restrict_rows",
]

T = TypeVar("T")
U = TypeVar("U")


def x_sorted(items: Sequence[T]) -> list[T]:
    """Return *items* sorted by their lower x-coordinate ``xl``.

    This is the precondition of :func:`sweep_pairs`; the paper keeps the
    entries of every R*-tree node in this order (section 2.2).
    """
    return sorted(items, key=_xl)


class SweepResult:
    """Outcome of one node-level plane sweep.

    Attributes
    ----------
    pairs:
        The intersecting pairs ``(r, s)`` — ``r`` always from the first
        sequence — in local plane-sweep order.
    tests:
        Number of y-overlap tests performed, the paper's proxy for the
        CPU cost of the filter step.
    """

    __slots__ = ("pairs", "tests")

    def __init__(self, pairs: list[tuple], tests: int):
        self.pairs = pairs
        self.tests = tests

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def sweep_pairs(rs: Sequence[T], ss: Sequence[U]) -> SweepResult:
    """All intersecting pairs of ``rs`` x ``ss`` in local plane-sweep order.

    Both sequences must be sorted by ``xl`` (see :func:`x_sorted`).  Runs in
    ``O(k + t)`` where ``t`` is the number of x-interval overlaps actually
    scanned — no sorting, no dynamic structures, exactly the formulation of
    section 2.2.
    """
    pairs: list[tuple] = []
    tests = 0
    i = j = 0
    n = len(rs)
    m = len(ss)
    append = pairs.append
    while i < n and j < m:
        r = rs[i]
        s = ss[j]
        if r.xl <= s.xl:
            # Sweep line stops at t = r: scan ss while its xl is within
            # r's x-extent.  x-overlap is implied (ss[k].xl >= r.xl), so
            # only the y-extents need testing.
            t_xu = r.xu
            t_yl = r.yl
            t_yu = r.yu
            k = j
            while k < m and ss[k].xl <= t_xu:
                c = ss[k]
                tests += 1
                if t_yl <= c.yu and c.yl <= t_yu:
                    append((r, c))
                k += 1
            i += 1
        else:
            t_xu = s.xu
            t_yl = s.yl
            t_yu = s.yu
            k = i
            while k < n and rs[k].xl <= t_xu:
                c = rs[k]
                tests += 1
                if t_yl <= c.yu and c.yl <= t_yu:
                    append((c, s))
                k += 1
            j += 1
    return SweepResult(pairs, tests)


def sweep_rows(rs: Sequence[tuple], ss: Sequence[tuple]) -> tuple[list, int]:
    """:func:`sweep_pairs` over box rows — tuples that start ``xl, yl,
    xu, yu`` (a node tree's leaf rows) — returning ``(pairs, tests)``:
    the same pairs in the same order for the same count of tests."""
    pairs: list[tuple] = []
    tests = 0
    i = j = 0
    n = len(rs)
    m = len(ss)
    append = pairs.append
    while i < n and j < m:
        r = rs[i]
        s = ss[j]
        if r[0] <= s[0]:
            t_yl, t_xu, t_yu = r[1], r[2], r[3]
            k = j
            while k < m:
                c = ss[k]
                if c[0] > t_xu:
                    break
                if t_yl <= c[3] and c[1] <= t_yu:
                    append((r, c))
                k += 1
            tests += k - j
            i += 1
        else:
            t_yl, t_xu, t_yu = s[1], s[2], s[3]
            k = i
            while k < n:
                c = rs[k]
                if c[0] > t_xu:
                    break
                if t_yl <= c[3] and c[1] <= t_yu:
                    append((c, s))
                k += 1
            tests += k - i
            j += 1
    return pairs, tests


def restrict_rows(rows: Sequence[tuple], xl, yl, xu, yu) -> list[tuple]:
    """:func:`restrict_to_window` over box rows (tuples that start ``xl,
    yl, xu, yu``), the window given by its four coordinates."""
    return [
        row for row in rows
        if row[0] <= xu and xl <= row[2] and row[1] <= yu and yl <= row[3]
    ]


def restrict_to_window(items: Sequence[T], window) -> list[T]:
    """Search-space restriction, tuning technique (i) of [BKS 93].

    For a qualifying node pair only the entries intersecting the
    *intersection* of the two node MBRs can contribute intersecting pairs;
    everything else is dropped before the sweep.  ``window`` is any object
    with ``xl, yl, xu, yu``; the input order (x-sortedness) is preserved.
    """
    w_xl = window.xl
    w_yl = window.yl
    w_xu = window.xu
    w_yu = window.yu
    return [
        e
        for e in items
        if e.xl <= w_xu and w_xl <= e.xu and e.yl <= w_yu and w_yl <= e.yu
    ]


def _xl(item) -> float:
    return item.xl
