"""The z-order spatial join of [OM 88] — the related-work baseline.

PROBE's filter step: every object's MBR becomes a few z-regions (z-value
intervals), each relation's intervals are sorted by ``lo``, and the join
merges the two sorted sequences and reports object pairs with overlapping
z-intervals.  Because a z-region is a conservative approximation, this
yields a superset of the MBR-filter candidates: the same pair may match
through several region pairs (duplicates) and overlapping regions need
not mean overlapping MBRs (z-false hits).  :func:`zorder_join` removes
both and therefore produces *exactly* the MBR candidate set — making the
CPU trade-off against the R-tree join directly measurable.

[OM 88] keeps the sorted intervals in a B-tree, whose leaf level is the
sorted list; the merge needs nothing else.  It is the package's one plane
sweep (:func:`~repro.geometry.planesweep.sweep_rows`) over interval rows
``(lo, 0, hi, 0, oid, rect)``: a z-interval is a box of zero height, so
every x-overlap the sweep finds is a match.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from ..geometry.planesweep import sweep_rows
from ..geometry.rect import Rect
from ..rtree.query import require_count
from .curve import Quantizer, _decompose

__all__ = ["ZJoinStats", "zorder_join"]


def _interval_rows(
    items: Sequence[tuple[int, Rect]], quantizer: Quantizer, max_regions: int
) -> list[tuple]:
    """Every object's z-regions as sweep rows ``(lo, 0, hi, 0, oid,
    rect)``, sorted by ``lo``; rows of equal ``lo`` keep their input order
    (a stable sort)."""
    rows = [
        (region.lo, 0, region.hi, 0, oid, rect)
        for oid, rect in items
        for region in _decompose(rect, quantizer, max_regions)
    ]
    rows.sort(key=itemgetter(0))
    return rows


@dataclass
class ZJoinStats:
    """Cost accounting of one z-order join."""

    entries_r: int = 0
    entries_s: int = 0
    interval_tests: int = 0
    interval_matches: int = 0
    duplicates: int = 0
    z_false_hits: int = 0

    @property
    def candidates(self) -> int:
        return self.interval_matches - self.duplicates - self.z_false_hits


def zorder_join(
    items_r: Sequence[tuple[int, Rect]],
    items_s: Sequence[tuple[int, Rect]],
    bounds: Rect,
    *,
    bits: int = 12,
    max_regions: int = 4,
) -> tuple[list[tuple[int, int]], ZJoinStats]:
    """[OM 88] filter step; returns (candidate pairs, cost stats).

    The candidate set equals the MBR filter's (R-tree join) because
    z-duplicates are removed and every interval match is verified against
    the pair's MBRs.
    """
    require_count("max_regions", max_regions)
    quantizer = Quantizer(bounds, bits=bits)
    rows_r = _interval_rows(items_r, quantizer, max_regions)
    rows_s = _interval_rows(items_s, quantizer, max_regions)
    stats = ZJoinStats(entries_r=len(rows_r), entries_s=len(rows_s))

    pairs_found, stats.interval_tests = sweep_rows(rows_r, rows_s)
    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []
    for er, es in pairs_found:
        stats.interval_matches += 1
        key = (er[4], es[4])
        if key in seen:
            stats.duplicates += 1
            continue
        seen.add(key)
        if not er[5].intersects(es[5]):
            stats.z_false_hits += 1
            continue
        pairs.append(key)
    return pairs, stats
