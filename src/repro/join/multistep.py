"""Multi-step spatial join processing ([BKS 94], paper section 2.1).

The paper notes that "another filter step can further reduce the total
cost of spatial joins [BKS 94]" but leaves it out because it does not
affect the parallel design.  We implement it as an optional extension:

    MBR filter (R*-tree join)  →  hull filter  →  exact refinement

The **second filter step** tests the convex hulls of candidate pairs:
hulls are conservative, so disjoint hulls prove a false hit without the
expensive exact test; intersecting hulls stay candidates.  For convex
objects the hull test is even exact.  :class:`SecondFilter` reports how
many exact tests the step saved — the quantity [BKS 94] is about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..geometry.hull import ConvexPolygon
from ..rtree.rstar import RStarTree
from .refinement import ExactRefinement
from .sequential import sequential_join

__all__ = ["SecondFilter", "MultiStepResult", "multi_step_join"]


class SecondFilter:
    """Convex-hull filter between the MBR filter and the exact test."""

    def __init__(
        self,
        geometry_r: Mapping[int, tuple],
        geometry_s: Mapping[int, tuple],
    ):
        self._geometry_r = geometry_r
        self._geometry_s = geometry_s
        self._hulls_r: dict[int, ConvexPolygon] = {}
        self._hulls_s: dict[int, ConvexPolygon] = {}
        self.tests = 0
        self.eliminated = 0

    def _hull(self, cache, geometry, oid) -> ConvexPolygon:
        hull = cache.get(oid)
        if hull is None:
            hull = ConvexPolygon.of(geometry[oid])
            cache[oid] = hull
        return hull

    def passes(self, oid_r: int, oid_s: int) -> bool:
        """False when the hulls are disjoint (candidate is a false hit)."""
        self.tests += 1
        hull_r = self._hull(self._hulls_r, self._geometry_r, oid_r)
        hull_s = self._hull(self._hulls_s, self._geometry_s, oid_s)
        if hull_r.intersects(hull_s):
            return True
        self.eliminated += 1
        return False

    def filter(self, candidates) -> list[tuple[int, int]]:
        return [(r, s) for r, s in candidates if self.passes(r, s)]


@dataclass
class MultiStepResult:
    """Per-step accounting of one multi-step join."""

    answers: list[tuple[int, int]]
    mbr_candidates: int
    hull_survivors: int
    exact_tests: int

    @property
    def hull_eliminated(self) -> int:
        return self.mbr_candidates - self.hull_survivors

    @property
    def false_hits_after_hull(self) -> int:
        return self.hull_survivors - len(self.answers)

    def __repr__(self) -> str:
        return (
            f"MultiStepResult(mbr={self.mbr_candidates} -> "
            f"hull={self.hull_survivors} -> answers={len(self.answers)})"
        )


def multi_step_join(
    tree_r: RStarTree,
    tree_s: RStarTree,
    geometry_r: Mapping[int, tuple],
    geometry_s: Mapping[int, tuple],
    *,
    use_second_filter: bool = True,
) -> MultiStepResult:
    """The full pipeline: MBR filter, optional hull filter, exact test.

    With ``use_second_filter=False`` the exact test runs on every MBR
    candidate (the two-step baseline), letting benches measure what the
    second filter saves.
    """
    filter_result = sequential_join(tree_r, tree_s)
    candidates = filter_result.pairs
    survivors = candidates
    if use_second_filter:
        second = SecondFilter(geometry_r, geometry_s)
        survivors = second.filter(candidates)
    refinement = ExactRefinement(geometry_r, geometry_s)
    answers = refinement.filter_answers(survivors)
    return MultiStepResult(
        answers=answers,
        mbr_candidates=len(candidates),
        hull_survivors=len(survivors),
        exact_tests=refinement.tests,
    )
