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

A rectangle is a *row*: a tuple that starts ``xl, yl, xu, yu``.  This is
the one sweep of the package: a node R*-tree page at every level is read
as ``(xl, yl, xu, yu, child or oid)`` rows, and the z-order join sweeps
``(lo, 0, hi, 0, oid, rect)`` interval rows.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["sweep_rows", "restrict_rows"]


def sweep_rows(rs: Sequence[tuple], ss: Sequence[tuple]) -> tuple[list, int]:
    """All intersecting pairs ``(r, s)`` of ``rs`` x ``ss`` — ``r`` always
    from the first sequence — in local plane-sweep order, and the number
    of y-overlap tests spent (the paper's proxy for the filter step's CPU
    cost).

    Both sequences must be sorted by ``xl`` (``row[0]``).  Runs in
    ``O(k + t)`` where ``t`` is the number of x-interval overlaps actually
    scanned — no sorting, no dynamic structures, exactly the formulation
    of section 2.2.
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
        if r[0] <= s[0]:
            # Sweep line stops at t = r: scan ss while its xl is within
            # r's x-extent.  x-overlap is implied (ss[k][0] >= r[0]), so
            # only the y-extents need testing.
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
    """Search-space restriction, tuning technique (i) of [BKS 93].

    For a qualifying node pair only the rows intersecting the
    *intersection* of the two node MBRs — the window ``xl, yl, xu, yu`` —
    can contribute intersecting pairs; everything else is dropped before
    the sweep.  The input order (x-sortedness) is preserved.
    """
    return [
        row for row in rows
        if row[0] <= xu and xl <= row[2] and row[1] <= yu and yl <= row[3]
    ]
