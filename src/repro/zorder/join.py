"""The z-order spatial join of [OM 88] — the related-work baseline.

PROBE's filter step: every object's MBR becomes a few z-regions (z-value
intervals) stored in a B-tree per relation; the join merges the two
ordered sequences and reports object pairs with overlapping z-intervals.
Because a z-region is a conservative approximation, this yields a superset
of the MBR-filter candidates: the same pair may match through several
region pairs (duplicates) and overlapping regions need not mean
overlapping MBRs (z-false hits).  :func:`zorder_join` removes both and
therefore produces *exactly* the MBR candidate set — making the CPU
trade-off against the R-tree join directly measurable.

The merge of the two B-tree leaf scans is the package's one plane sweep
(:func:`~repro.geometry.planesweep.sweep_rows`) over interval rows
``(lo, 0, hi, 0, oid, rect)``: a z-interval is a box of zero height, so
every x-overlap the sweep finds is a match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from ..geometry.planesweep import sweep_rows
from ..geometry.rect import Rect
from .btree import BPlusTree
from .curve import Quantizer, decompose

__all__ = ["ZOrderIndex", "ZJoinStats", "zorder_join"]


class ZOrderIndex:
    """A spatial relation as z-intervals in a B+-tree."""

    def __init__(
        self,
        items: Sequence[tuple[Hashable, Rect]],
        quantizer: Quantizer,
        max_regions: int = 4,
        btree_order: int = 64,
    ):
        self.quantizer = quantizer
        self.max_regions = max_regions
        self.tree = BPlusTree(order=btree_order)
        self.entry_count = 0
        for oid, rect in items:
            for region in decompose(rect, quantizer, max_regions):
                self.tree.insert(region.lo, (region.hi, oid, rect))
                self.entry_count += 1

    def interval_rows(self) -> list[tuple]:
        """The B-tree leaf scan as sweep rows ``(lo, 0, hi, 0, oid,
        rect)``, in ``lo`` order."""
        return [(lo, 0, hi, 0, oid, rect) for lo, (hi, oid, rect) in self.tree.items()]

    def __repr__(self) -> str:
        return f"<ZOrderIndex {self.entry_count} intervals, {self.tree!r}>"


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
    items_r: Sequence[tuple[Hashable, Rect]],
    items_s: Sequence[tuple[Hashable, Rect]],
    bounds: Rect,
    *,
    bits: int = 12,
    max_regions: int = 4,
) -> tuple[list[tuple[Hashable, Hashable]], ZJoinStats]:
    """[OM 88] filter step; returns (candidate pairs, cost stats).

    The candidate set equals the MBR filter's (R-tree join) because
    z-duplicates are removed and every interval match is verified against
    the pair's MBRs.
    """
    quantizer = Quantizer(bounds, bits=bits)
    index_r = ZOrderIndex(items_r, quantizer, max_regions)
    index_s = ZOrderIndex(items_s, quantizer, max_regions)
    stats = ZJoinStats(entries_r=index_r.entry_count, entries_s=index_s.entry_count)

    pairs_found, stats.interval_tests = sweep_rows(
        index_r.interval_rows(), index_s.interval_rows()
    )
    seen: set[tuple[Hashable, Hashable]] = set()
    pairs: list[tuple[Hashable, Hashable]] = []
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
