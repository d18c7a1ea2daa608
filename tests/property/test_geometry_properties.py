"""Property-based tests (hypothesis) for the geometry substrate."""

from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, Segment, brute_join_pairs, sweep_rows

coords = st.floats(
    min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False
)


@st.composite
def rect_st(draw):
    xl = draw(coords)
    yl = draw(coords)
    w = draw(st.floats(min_value=0, max_value=100, allow_nan=False))
    h = draw(st.floats(min_value=0, max_value=100, allow_nan=False))
    return Rect(xl, yl, xl + w, yl + h)


@st.composite
def segment_st(draw):
    return Segment(draw(coords), draw(coords), draw(coords), draw(coords))


class TestRectProperties:
    @given(rect_st(), rect_st())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(rect_st(), rect_st())
    def test_intersection_consistent_with_predicate(self, a, b):
        inter = a.intersection(b)
        assert (inter is not None) == a.intersects(b)
        if inter is not None:
            assert a.contains(inter)
            assert b.contains(inter)

    @given(rect_st(), rect_st())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains(a)
        assert u.contains(b)

    @given(rect_st(), rect_st())
    def test_enlargement_nonnegative(self, a, b):
        assert a.enlargement(b) >= -1e-9

    @given(rect_st(), rect_st())
    def test_overlap_degree_in_unit_interval(self, a, b):
        d = a.overlap_degree(b)
        assert 0.0 <= d <= 1.0 + 1e-9

    @given(rect_st(), rect_st())
    def test_overlap_degree_zero_iff_disjoint_interiorless(self, a, b):
        if not a.intersects(b):
            assert a.overlap_degree(b) == 0.0

    @given(rect_st())
    def test_self_union_identity(self, a):
        assert a.union(a) == a
        assert a.intersection(a) == a

    @given(rect_st(), rect_st())
    def test_min_distance_zero_iff_intersecting(self, a, b):
        if a.intersects(b):
            assert a.min_distance(b) == 0.0
        else:
            assert a.min_distance(b) > 0.0


class TestSegmentProperties:
    @given(segment_st(), segment_st())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(segment_st())
    def test_self_intersects(self, a):
        assert a.intersects(a)

    @given(segment_st(), segment_st())
    def test_intersection_implies_mbr_overlap(self, a, b):
        if a.intersects(b):
            assert a.mbr().intersects(b.mbr())


def x_rows(rects):
    """The rectangles as ``(xl, yl, xu, yu)`` rows in ``xl`` order."""
    return sorted((r.as_tuple() for r in rects), key=itemgetter(0))


class TestSweepProperties:
    @given(
        st.lists(rect_st(), max_size=40),
        st.lists(rect_st(), max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_sweep_equals_brute_force(self, rs, ss):
        got = sweep_rows(x_rows(rs), x_rows(ss))[0]
        want = brute_join_pairs(rs, ss)
        # Duplicates are possible (identical rects), so compare multisets
        # of coordinate tuples.
        key = lambda p: (p[0].as_tuple(), p[1].as_tuple())
        assert sorted(got) == sorted(map(key, want))

    @given(
        st.lists(rect_st(), max_size=30),
        st.lists(rect_st(), max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_sweep_order_is_nondecreasing_in_sweep_position(self, rs, ss):
        # Pairs are emitted at sweep-line stops; the stop coordinate of a
        # pair is the smaller xl of its two rectangles, and stops move
        # strictly left to right, so that coordinate never decreases.
        positions = [min(r[0], s[0]) for r, s in sweep_rows(x_rows(rs), x_rows(ss))[0]]
        assert positions == sorted(positions)
