"""Unit tests for the Rect MBR algebra."""

import math

import pytest

from repro.geometry import Rect


class TestConstruction:
    def test_basic_fields(self):
        r = Rect(1, 2, 3, 4)
        assert (r.xl, r.yl, r.xu, r.yu) == (1.0, 2.0, 3.0, 4.0)

    def test_degenerate_point_allowed(self):
        r = Rect(1, 1, 1, 1)
        assert r.area() == 0.0

    def test_degenerate_segment_allowed(self):
        r = Rect(0, 1, 5, 1)
        assert r.area() == 0.0
        assert r.margin() == 5.0

    def test_malformed_x_raises(self):
        with pytest.raises(ValueError):
            Rect(2, 0, 1, 1)

    def test_malformed_y_raises(self):
        with pytest.raises(ValueError):
            Rect(0, 2, 1, 1)

    def test_immutable(self):
        r = Rect(0, 0, 1, 1)
        with pytest.raises(AttributeError):
            r.xl = 5

    def test_from_points(self):
        r = Rect.from_points([(3, 1), (0, 4), (2, 2)])
        assert r == Rect(0, 1, 3, 4)

    def test_from_points_single(self):
        assert Rect.from_points([(1, 2)]) == Rect(1, 2, 1, 2)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.from_points([])

    def test_union_all(self):
        r = Rect.union_all([Rect(0, 0, 1, 1), Rect(2, -1, 3, 0.5)])
        assert r == Rect(0, -1, 3, 1)

    def test_union_all_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.union_all([])


class TestMeasures:
    def test_area(self):
        assert Rect(0, 0, 2, 3).area() == 6.0

    def test_margin(self):
        assert Rect(0, 0, 2, 3).margin() == 5.0

    def test_center(self):
        assert Rect(0, 0, 2, 4).center() == (1.0, 2.0)

    def test_width_height(self):
        r = Rect(1, 2, 4, 7)
        assert r.width() == 3.0
        assert r.height() == 5.0


class TestPredicates:
    def test_intersects_overlapping(self):
        assert Rect(0, 0, 2, 2).intersects(Rect(1, 1, 3, 3))

    def test_intersects_touching_edge(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))

    def test_intersects_touching_corner(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 1, 2, 2))

    def test_disjoint_x(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(1.01, 0, 2, 1))

    def test_disjoint_y(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(0, 1.01, 1, 2))

    def test_intersects_containment(self):
        outer = Rect(0, 0, 10, 10)
        inner = Rect(4, 4, 5, 5)
        assert outer.intersects(inner)
        assert inner.intersects(outer)

    def test_contains(self):
        assert Rect(0, 0, 10, 10).contains(Rect(1, 1, 2, 2))
        assert not Rect(1, 1, 2, 2).contains(Rect(0, 0, 10, 10))

    def test_contains_self(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains(r)

    def test_contains_point(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(0.5, 0.5)
        assert r.contains_point(0, 0)  # boundary
        assert not r.contains_point(1.1, 0.5)


class TestCombination:
    def test_intersection(self):
        got = Rect(0, 0, 2, 2).intersection(Rect(1, 1, 3, 3))
        assert got == Rect(1, 1, 2, 2)

    def test_intersection_disjoint_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(2, 2, 3, 3)) is None

    def test_intersection_touching_is_degenerate(self):
        got = Rect(0, 0, 1, 1).intersection(Rect(1, 0, 2, 1))
        assert got == Rect(1, 0, 1, 1)
        assert got.area() == 0.0

    def test_union(self):
        assert Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3)) == Rect(0, 0, 3, 3)

    def test_enlargement_zero_when_contained(self):
        assert Rect(0, 0, 10, 10).enlargement(Rect(1, 1, 2, 2)) == 0.0

    def test_enlargement_positive(self):
        assert Rect(0, 0, 1, 1).enlargement(Rect(2, 0, 3, 1)) == pytest.approx(2.0)

    def test_min_distance_disjoint(self):
        assert Rect(0, 0, 1, 1).min_distance(Rect(4, 4, 5, 5)) == pytest.approx(
            math.hypot(3, 3)
        )

    def test_min_distance_overlapping_is_zero(self):
        assert Rect(0, 0, 2, 2).min_distance(Rect(1, 1, 3, 3)) == 0.0


class TestOverlapDegree:
    def test_disjoint_is_zero(self):
        assert Rect(0, 0, 1, 1).overlap_degree(Rect(5, 5, 6, 6)) == 0.0

    def test_identical_is_one(self):
        r = Rect(0, 0, 2, 3)
        assert r.overlap_degree(r) == pytest.approx(1.0)

    def test_partial_between_zero_and_one(self):
        d = Rect(0, 0, 2, 2).overlap_degree(Rect(1, 1, 3, 3))
        assert 0.0 < d < 1.0
        # Half of the smaller extent covered on each axis.
        assert d == pytest.approx(0.25)

    def test_symmetry(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(1, 0.5, 4, 5)
        assert a.overlap_degree(b) == pytest.approx(b.overlap_degree(a))

    def test_degenerate_segments_overlapping(self):
        a = Rect(0, 1, 4, 1)
        b = Rect(2, 1, 6, 1)
        d = a.overlap_degree(b)
        assert 0.0 < d < 1.0

    def test_degenerate_identical_points(self):
        p = Rect(1, 1, 1, 1)
        assert p.overlap_degree(p) == 1.0

    def test_degenerate_disjoint_points(self):
        assert Rect(0, 0, 0, 0).overlap_degree(Rect(1, 1, 1, 1)) == 0.0

    def test_segment_against_area_rect(self):
        seg = Rect(0, 1, 4, 1)
        box = Rect(1, 0, 2, 2)
        d = seg.overlap_degree(box)
        assert 0.0 < d <= 1.0


class TestDunder:
    def test_eq_and_hash(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(0, 0, 1, 1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Rect(0, 0, 1, 2)

    def test_eq_other_type(self):
        assert Rect(0, 0, 1, 1) != "rect"

    def test_iter_and_tuple(self):
        r = Rect(1, 2, 3, 4)
        assert tuple(r) == (1, 2, 3, 4)
        assert r.as_tuple() == (1, 2, 3, 4)

    def test_repr_roundtrip(self):
        r = Rect(0.5, 1, 2, 3)
        assert eval(repr(r)) == r
