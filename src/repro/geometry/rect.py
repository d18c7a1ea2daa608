"""Axis-parallel rectangles (minimum bounding rectangles, MBRs).

The rectangle is the unit of currency of the whole system: R*-tree entries
store MBRs, the spatial-join filter step tests MBRs for intersection, and
the refinement-cost model of the paper (section 4.2) is driven by the
*degree of overlap* between two MBRs.

A :class:`Rect` is immutable and exposes its coordinates as the plain
attributes ``xl, yl, xu, yu`` (lower-left and upper-right corner, following
the paper's notation in section 2.2).  Any object exposing those four
attributes can take part in the plane-sweep algorithms of
:mod:`repro.geometry.planesweep`; R*-tree entries mirror the attributes for
exactly this reason.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

__all__ = ["Rect", "EMPTY_AREA_EPS"]

#: Areas below this threshold are treated as degenerate when computing
#: ratios such as the overlap degree.
EMPTY_AREA_EPS = 1e-12


class Rect:
    """A closed axis-parallel rectangle ``[xl, xu] x [yl, yu]``.

    Degenerate rectangles (points, horizontal/vertical segments) are legal;
    TIGER street segments frequently produce them.  Intersection tests use
    closed-interval semantics, matching the usual R-tree convention where
    touching rectangles qualify as intersecting.
    """

    __slots__ = ("xl", "yl", "xu", "yu")

    def __init__(self, xl: float, yl: float, xu: float, yu: float):
        if xu < xl or yu < yl:
            raise ValueError(
                f"malformed rectangle: ({xl}, {yl}, {xu}, {yu}) has "
                "upper corner below lower corner"
            )
        object.__setattr__(self, "xl", float(xl))
        object.__setattr__(self, "yl", float(yl))
        object.__setattr__(self, "xu", float(xu))
        object.__setattr__(self, "yu", float(yu))

    # -- immutability -----------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Rect is immutable")

    # -- construction helpers ---------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "Rect":
        """Return the MBR of a non-empty iterable of ``(x, y)`` points."""
        it = iter(points)
        try:
            x, y = next(it)
        except StopIteration:
            raise ValueError("cannot build the MBR of zero points") from None
        xl = xu = x
        yl = yu = y
        for x, y in it:
            if x < xl:
                xl = x
            elif x > xu:
                xu = x
            if y < yl:
                yl = y
            elif y > yu:
                yu = y
        return cls(xl, yl, xu, yu)

    @classmethod
    def union_all(cls, rects: Iterable["Rect"]) -> "Rect":
        """Return the MBR enclosing a non-empty iterable of rectangles."""
        it = iter(rects)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("cannot build the union of zero rectangles") from None
        xl, yl, xu, yu = first.xl, first.yl, first.xu, first.yu
        for r in it:
            if r.xl < xl:
                xl = r.xl
            if r.yl < yl:
                yl = r.yl
            if r.xu > xu:
                xu = r.xu
            if r.yu > yu:
                yu = r.yu
        return cls(xl, yl, xu, yu)

    # -- basic measures ----------------------------------------------------
    def area(self) -> float:
        """Area; zero for degenerate rectangles."""
        return (self.xu - self.xl) * (self.yu - self.yl)

    def margin(self) -> float:
        """Half perimeter, the R*-tree split criterion of [BKSS 90]."""
        return (self.xu - self.xl) + (self.yu - self.yl)

    def center(self) -> tuple[float, float]:
        return ((self.xl + self.xu) / 2.0, (self.yl + self.yu) / 2.0)

    def width(self) -> float:
        return self.xu - self.xl

    def height(self) -> float:
        return self.yu - self.yl

    # -- predicates ----------------------------------------------------------
    def intersects(self, other: "Rect") -> bool:
        """Closed-interval intersection test (touching counts)."""
        return (
            self.xl <= other.xu
            and other.xl <= self.xu
            and self.yl <= other.yu
            and other.yl <= self.yu
        )

    def contains(self, other: "Rect") -> bool:
        """True when *other* lies completely inside this rectangle."""
        return (
            self.xl <= other.xl
            and self.yl <= other.yl
            and other.xu <= self.xu
            and other.yu <= self.yu
        )

    def contains_point(self, x: float, y: float) -> bool:
        return self.xl <= x <= self.xu and self.yl <= y <= self.yu

    # -- combining rectangles ----------------------------------------------
    def intersection(self, other: "Rect") -> "Rect | None":
        """The common rectangle, or ``None`` when disjoint."""
        xl = self.xl if self.xl > other.xl else other.xl
        yl = self.yl if self.yl > other.yl else other.yl
        xu = self.xu if self.xu < other.xu else other.xu
        yu = self.yu if self.yu < other.yu else other.yu
        if xu < xl or yu < yl:
            return None
        return Rect(xl, yl, xu, yu)

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            self.xl if self.xl < other.xl else other.xl,
            self.yl if self.yl < other.yl else other.yl,
            self.xu if self.xu > other.xu else other.xu,
            self.yu if self.yu > other.yu else other.yu,
        )

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to also cover *other* (R-tree insertion cost)."""
        union_area = (
            (max(self.xu, other.xu) - min(self.xl, other.xl))
            * (max(self.yu, other.yu) - min(self.yl, other.yl))
        )
        return union_area - self.area()

    def overlap_degree(self, other: "Rect") -> float:
        """Degree of overlap in ``[0, 1]`` used by the refinement-cost model.

        The paper makes the simulated exact-geometry test take 2-18 ms
        "depending on the degree of overlap between the corresponding MBRs"
        (section 4.2) without pinning the formula down.  We use the product
        over both axes of ``overlap-width / smaller-extent`` — the fraction
        of the smaller rectangle's extent that is covered.  It is 0 for
        disjoint rectangles, 1 when one rectangle is contained in the
        other, and well-defined for the degenerate (zero-area) MBRs that
        straight street segments produce: a degenerate extent lying inside
        the partner's range counts as fully covered.
        """
        wx = min(self.xu, other.xu) - max(self.xl, other.xl)
        if wx < 0.0:
            return 0.0
        wy = min(self.yu, other.yu) - max(self.yl, other.yl)
        if wy < 0.0:
            return 0.0
        min_wx = min(self.xu - self.xl, other.xu - other.xl)
        min_wy = min(self.yu - self.yl, other.yu - other.yl)
        degree = 1.0
        if min_wx > EMPTY_AREA_EPS:
            degree *= wx / min_wx
        if min_wy > EMPTY_AREA_EPS:
            degree *= wy / min_wy
        return degree

    def min_distance(self, other: "Rect") -> float:
        """Euclidean distance between the closest points of two rectangles."""
        dx = max(self.xl - other.xu, other.xl - self.xu, 0.0)
        dy = max(self.yl - other.yu, other.yl - self.yu, 0.0)
        return math.hypot(dx, dy)

    # -- dunder plumbing ------------------------------------------------------
    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.xl, self.yl, self.xu, self.yu)

    def __iter__(self) -> Iterator[float]:
        return iter((self.xl, self.yl, self.xu, self.yu))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return (
            self.xl == other.xl
            and self.yl == other.yl
            and self.xu == other.xu
            and self.yu == other.yu
        )

    def __hash__(self) -> int:
        return hash((self.xl, self.yl, self.xu, self.yu))

    def __repr__(self) -> str:
        return f"Rect({self.xl:g}, {self.yl:g}, {self.xu:g}, {self.yu:g})"
