"""Simple polygons for area features (administrative boundaries, forests).

The paper motivates the spatial join with "find all forests which are in a
city" — a polygon/polygon join.  *map 2* of the evaluation contains
administrative boundaries, which we model as simple (non-self-intersecting)
polygons.  Only the predicates needed by join refinement are provided:
point containment and polygon/polygon resp. polygon/polyline intersection.
"""

from __future__ import annotations

from typing import Sequence

from .rect import Rect
from .segment import Segment

__all__ = ["Polygon"]


class Polygon:
    """A simple polygon given by its boundary vertices (implicitly closed)."""

    __slots__ = ("points", "_mbr")

    def __init__(self, points: Sequence[tuple[float, float]]):
        pts = [(float(x), float(y)) for x, y in points]
        if len(pts) < 3:
            raise ValueError("a polygon needs at least three vertices")
        if pts[0] == pts[-1]:
            pts = pts[:-1]
            if len(pts) < 3:
                raise ValueError("a polygon needs at least three distinct vertices")
        self.points = pts
        self._mbr = Rect.from_points(pts)

    @property
    def mbr(self) -> Rect:
        return self._mbr

    def boundary_segments(self) -> list[Segment]:
        pts = self.points
        segs = []
        for i in range(len(pts)):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % len(pts)]
            segs.append(Segment(ax, ay, bx, by))
        return segs

    def area(self) -> float:
        """Unsigned area (shoelace formula)."""
        pts = self.points
        acc = 0.0
        for i in range(len(pts)):
            x0, y0 = pts[i]
            x1, y1 = pts[(i + 1) % len(pts)]
            acc += x0 * y1 - x1 * y0
        return abs(acc) / 2.0

    def contains_point(self, x: float, y: float) -> bool:
        """Ray-casting point-in-polygon test; boundary points count as inside."""
        if not self._mbr.contains_point(x, y):
            return False
        # Boundary check first so the ray-cast parity cannot misclassify
        # points sitting exactly on an edge.
        for seg in self.boundary_segments():
            if _point_on_segment(seg, x, y):
                return True
        inside = False
        pts = self.points
        n = len(pts)
        j = n - 1
        for i in range(n):
            xi, yi = pts[i]
            xj, yj = pts[j]
            if (yi > y) != (yj > y):
                x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
                if x < x_cross:
                    inside = not inside
            j = i
        return inside

    def intersects_polygon(self, other: "Polygon") -> bool:
        """True when interiors/boundaries share at least one point."""
        if not self._mbr.intersects(other._mbr):
            return False
        others = other.boundary_segments()
        for a in self.boundary_segments():
            for b in others:
                if a.intersects(b):
                    return True
        # No boundary crossing: one polygon may contain the other entirely.
        ox, oy = other.points[0]
        if self.contains_point(ox, oy):
            return True
        sx, sy = self.points[0]
        return other.contains_point(sx, sy)

    def __repr__(self) -> str:
        return f"Polygon({len(self.points)} vertices, mbr={self._mbr!r})"


def _point_on_segment(seg: Segment, x: float, y: float) -> bool:
    cross = (seg.bx - seg.ax) * (y - seg.ay) - (seg.by - seg.ay) * (x - seg.ax)
    if abs(cross) > 1e-12:
        return False
    return (
        min(seg.ax, seg.bx) <= x <= max(seg.ax, seg.bx)
        and min(seg.ay, seg.by) <= y <= max(seg.ay, seg.by)
    )
