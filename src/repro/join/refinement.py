"""The refinement step and its simulated cost model (section 4.2).

The paper replaces the exact-geometry intersection test by "waiting periods
whose lengths depend on the degree of overlap between the corresponding
MBRs": on average 10 ms per candidate pair, varying between 2 ms and 18 ms.
:class:`RefinementModel` reproduces that substitution.  The *degree of
overlap* is computed per axis as ``overlap-width / sqrt(smaller-extent *
union-extent)`` — the geometric mean of "how much of the smaller object is
covered" and "how similar the two extents are".  This avoids the saturation
a pure containment ratio suffers on street-inside-boundary pairs while
still reaching 1.0 for identical MBRs; the default response exponent is
calibrated so the mean cost on the standard synthetic workload is the
paper's 10 ms.

:class:`ExactRefinement` is the real thing for data generated with exact
geometry: polyline/polyline intersection via the plane-sweep of
:mod:`repro.geometry.polyline`.  It is used by examples and tests; the
simulation experiments use the cost model, as the paper did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..geometry.polyline import Polyline

__all__ = ["RefinementModel", "ExactRefinement", "overlap_degree"]


def overlap_degree(a, b) -> float:
    """Degree of overlap of two intersecting MBRs, in ``[0, 1]``.

    ``a`` and ``b`` are anything with ``xl, yl, xu, yu``.  Per axis the
    factor is ``w / sqrt(min_extent * union_extent)``; degenerate axes
    (zero extent on either side) count as fully covered.  Returns 0 for
    disjoint MBRs.
    """
    return box_overlap_degree((a.xl, a.yl, a.xu, a.yu), (b.xl, b.yl, b.xu, b.yu))


def box_overlap_degree(a, b) -> float:
    """:func:`overlap_degree` of two boxes given as sequences that start
    ``xl, yl, xu, yu`` — a node tree's leaf rows."""
    degree = 1.0
    for al, au, bl, bu in ((a[0], a[2], b[0], b[2]), (a[1], a[3], b[1], b[3])):
        w = (au if au < bu else bu) - (al if al > bl else bl)
        if w < 0.0:
            return 0.0
        smaller = min(au - al, bu - bl)
        union = (au if au > bu else bu) - (al if al < bl else bl)
        if smaller <= 1e-12 or union <= 1e-12:
            continue
        degree *= w / (smaller * union) ** 0.5
    return degree


@dataclass(frozen=True)
class RefinementModel:
    """Simulated exact-geometry test duration (seconds).

    ``cost = t_min + (t_max - t_min) * degree ** exponent`` — 2 ms for
    barely touching MBRs up to 18 ms for coincident ones, averaging about
    10 ms on the standard workload (the paper's calibration, section 4.2).
    """

    t_min: float = 2e-3
    t_max: float = 18e-3
    exponent: float = 0.38

    def cost(self, a, b) -> float:
        """Duration of testing one candidate pair of MBRs."""
        return self.row_cost((a.xl, a.yl, a.xu, a.yu), (b.xl, b.yl, b.xu, b.yu))

    def row_cost(self, a, b) -> float:
        """:meth:`cost` of two boxes given as :func:`box_overlap_degree`
        takes them."""
        return self.t_min + (self.t_max - self.t_min) * (
            box_overlap_degree(a, b) ** self.exponent
        )


class ExactRefinement:
    """Real refinement: test the exact polylines of candidate pairs.

    Construct with two geometry lookups (oid → point tuple), as produced by
    generating maps with ``include_geometry=True``.
    """

    def __init__(
        self,
        geometry_r: Mapping[int, tuple],
        geometry_s: Mapping[int, tuple],
    ):
        self._geometry_r = geometry_r
        self._geometry_s = geometry_s
        self.tests = 0
        self.answers = 0

    def is_answer(self, oid_r: int, oid_s: int) -> bool:
        """True when the exact geometries intersect (candidate is a hit)."""
        self.tests += 1
        line_r = Polyline(self._geometry_r[oid_r])
        line_s = Polyline(self._geometry_s[oid_s])
        if line_r.intersects(line_s):
            self.answers += 1
            return True
        return False

    def filter_answers(self, candidates) -> list[tuple[int, int]]:
        """Split candidate pairs into answers, dropping the false hits."""
        return [(r, s) for r, s in candidates if self.is_answer(r, s)]
