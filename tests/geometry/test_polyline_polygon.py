"""Unit tests for polylines and polygons (exact refinement geometry)."""

import pytest

from repro.geometry import Polygon, Polyline, Rect


class TestPolyline:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            Polyline([(0, 0)])

    def test_mbr(self):
        line = Polyline([(0, 0), (2, 3), (1, -1)])
        assert line.mbr == Rect(0, -1, 2, 3)

    def test_segments_count(self):
        line = Polyline([(0, 0), (1, 0), (2, 1)])
        assert line.num_segments() == 2
        assert len(list(line.segments())) == 2

    def test_length(self):
        line = Polyline([(0, 0), (3, 4), (3, 5)])
        assert line.length() == pytest.approx(6.0)

    def test_len(self):
        assert len(Polyline([(0, 0), (1, 1)])) == 2

    def test_intersects_crossing(self):
        a = Polyline([(0, 0), (2, 2)])
        b = Polyline([(0, 2), (2, 0)])
        assert a.intersects(b)

    def test_intersects_disjoint(self):
        a = Polyline([(0, 0), (1, 0)])
        b = Polyline([(0, 1), (1, 1)])
        assert not a.intersects(b)

    def test_intersects_mbr_overlap_but_no_crossing(self):
        a = Polyline([(0, 0), (10, 10)])
        b = Polyline([(0, 1), (4, 9)])
        assert a.mbr.intersects(b.mbr)
        assert not a.intersects(b)

    def test_intersects_multisegment(self):
        a = Polyline([(0, 0), (1, 2), (2, 0), (3, 2)])
        b = Polyline([(0, 1), (3, 1)])
        assert a.intersects(b)

    def test_sweep_matches_brute(self):
        zig = Polyline([(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)])
        others = [
            Polyline([(0, 0.5), (4, 0.5)]),
            Polyline([(0, 2), (4, 2)]),
            Polyline([(1.5, -1), (1.5, 2)]),
            Polyline([(-1, -1), (-0.5, -0.5)]),
        ]
        for other in others:
            assert zig.intersects(other) == zig.intersects_brute(other)


class TestPolygon:
    def test_requires_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1)])

    def test_closed_ring_input_accepted(self):
        p = Polygon([(0, 0), (1, 0), (0, 1), (0, 0)])
        assert len(p.points) == 3

    def test_closed_degenerate_ring_rejected(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 0), (0, 0)])

    def test_area_unit_square(self):
        sq = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert sq.area() == pytest.approx(1.0)

    def test_area_orientation_independent(self):
        ccw = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        cw = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert ccw.area() == pytest.approx(cw.area())

    def test_contains_point_inside(self):
        sq = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert sq.contains_point(1, 1)

    def test_contains_point_outside(self):
        sq = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert not sq.contains_point(3, 1)

    def test_contains_point_on_boundary(self):
        sq = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert sq.contains_point(2, 1)
        assert sq.contains_point(0, 0)

    def test_contains_point_concave(self):
        # L-shaped polygon: the notch is outside.
        ell = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        assert ell.contains_point(0.5, 1.5)
        assert not ell.contains_point(1.5, 1.5)

    def test_polygon_intersection_overlap(self):
        a = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        b = Polygon([(1, 1), (3, 1), (3, 3), (1, 3)])
        assert a.intersects_polygon(b)

    def test_polygon_intersection_containment(self):
        outer = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        inner = Polygon([(4, 4), (5, 4), (5, 5), (4, 5)])
        assert outer.intersects_polygon(inner)
        assert inner.intersects_polygon(outer)

    def test_polygon_intersection_disjoint(self):
        a = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = Polygon([(5, 5), (6, 5), (6, 6), (5, 6)])
        assert not a.intersects_polygon(b)
