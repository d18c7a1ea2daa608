"""R*-tree entries.

An entry couples an MBR with either an object identifier (data entry, 156
bytes on disk in the paper's layout) or a child node (directory entry, 40
bytes).  The MBR coordinates are stored flat as ``xl, yl, xu, yu`` so that
entries participate directly in the plane-sweep algorithms of
:mod:`repro.geometry.planesweep` without any wrapping.

Directory nodes hold their entries as these objects.  A data page holds
its data entries as a row range of the table the tree was built from
(:mod:`repro.rtree.node`) — the paper's MBR plus pointer, with the MBR
read through the pointer — so a data entry object exists only where a
caller asks for one — a node tree's query answers,
:meth:`RStarTree.data_entries` — or while an insert, split or delete is
changing its leaf.
"""

from __future__ import annotations

from typing import Optional

from ..geometry.rect import Rect

__all__ = ["Entry"]


class Entry:
    """One slot of an R*-tree node.

    Exactly one of ``child`` (directory entry) and ``oid`` (data entry) is
    set.  The MBR is mutable because inserts and deletions adjust ancestor
    rectangles in place.
    """

    __slots__ = ("xl", "yl", "xu", "yu", "child", "oid")

    def __init__(
        self,
        xl: float,
        yl: float,
        xu: float,
        yu: float,
        child: Optional["object"] = None,
        oid=None,
    ):
        if (child is None) == (oid is None):
            raise ValueError("an entry is either a directory entry or a data entry")
        self.xl = xl
        self.yl = yl
        self.xu = xu
        self.yu = yu
        self.child = child
        self.oid = oid

    @classmethod
    def for_object(cls, rect: Rect, oid) -> "Entry":
        """A data entry: MBR plus pointer to the exact representation."""
        return cls(rect.xl, rect.yl, rect.xu, rect.yu, oid=oid)

    @classmethod
    def for_child(cls, node) -> "Entry":
        """A directory entry covering *node* (MBR computed from the node)."""
        xl, yl, xu, yu = node.mbr_tuple()
        return cls(xl, yl, xu, yu, child=node)

    @property
    def is_data(self) -> bool:
        return self.oid is not None

    @property
    def rect(self) -> Rect:
        return Rect(self.xl, self.yl, self.xu, self.yu)

    def set_mbr(self, xl: float, yl: float, xu: float, yu: float) -> None:
        self.xl = xl
        self.yl = yl
        self.xu = xu
        self.yu = yu

    # -- geometry helpers used on the hot insertion path ----------------------
    def area(self) -> float:
        return (self.xu - self.xl) * (self.yu - self.yl)

    def margin(self) -> float:
        return (self.xu - self.xl) + (self.yu - self.yl)

    def intersects(self, other) -> bool:
        """*other* is anything with ``xl, yl, xu, yu``."""
        return (
            self.xl <= other.xu
            and other.xl <= self.xu
            and self.yl <= other.yu
            and other.yl <= self.yu
        )

    def enlargement(self, other) -> float:
        """Area growth if this entry's MBR had to absorb *other*."""
        xl = self.xl if self.xl < other.xl else other.xl
        yl = self.yl if self.yl < other.yl else other.yl
        xu = self.xu if self.xu > other.xu else other.xu
        yu = self.yu if self.yu > other.yu else other.yu
        return (xu - xl) * (yu - yl) - self.area()

    def extend(self, other) -> None:
        """Grow this entry's MBR to cover *other* in place."""
        if other.xl < self.xl:
            self.xl = other.xl
        if other.yl < self.yl:
            self.yl = other.yl
        if other.xu > self.xu:
            self.xu = other.xu
        if other.yu > self.yu:
            self.yu = other.yu

    def center(self) -> tuple[float, float]:
        return ((self.xl + self.xu) / 2.0, (self.yl + self.yu) / 2.0)

    def __repr__(self) -> str:
        kind = f"oid={self.oid!r}" if self.is_data else "dir"
        return f"Entry(({self.xl:g}, {self.yl:g}, {self.xu:g}, {self.yu:g}), {kind})"
