"""Unit and property tests for the node-level plane sweep (section 2.2).

The sweep runs over rows: tuples that start ``xl, yl, xu, yu``; the rows
here carry their position as a fifth value."""

import random
from operator import itemgetter

import pytest

from repro.geometry import Rect, brute_join_pairs, restrict_rows, sweep_rows


def rects(*tuples):
    return [tuple(t) + (i,) for i, t in enumerate(tuples)]


def x_sorted(rows):
    return sorted(rows, key=itemgetter(0))


def brute(rs, ss):
    """The nested-loop reference, as a set of position pairs."""
    boxes_r = [Rect(*r[:4]) for r in rs]
    boxes_s = [Rect(*s[:4]) for s in ss]
    at_r = {id(box): r[4] for box, r in zip(boxes_r, rs)}
    at_s = {id(box): s[4] for box, s in zip(boxes_s, ss)}
    return {(at_r[id(r)], at_s[id(s)]) for r, s in brute_join_pairs(boxes_r, boxes_s)}


def positions(pairs):
    return {(r[4], s[4]) for r, s in pairs}


class TestSweepBasics:
    def test_empty_inputs(self):
        assert sweep_rows([], []) == ([], 0)
        assert sweep_rows(rects((0, 0, 1, 1)), []) == ([], 0)
        assert sweep_rows([], rects((0, 0, 1, 1))) == ([], 0)

    def test_single_intersecting_pair(self):
        rs = rects((0, 0, 2, 2))
        ss = rects((1, 1, 3, 3))
        pairs, tests = sweep_rows(rs, ss)
        assert pairs == [(rs[0], ss[0])]
        assert tests >= 1

    def test_single_disjoint_pair(self):
        rs = rects((0, 0, 1, 1))
        ss = rects((5, 5, 6, 6))
        assert sweep_rows(rs, ss)[0] == []

    def test_pair_orientation_preserved(self):
        # Output pairs are always (row of rs, row of ss) even when the
        # sweep line stops at an s-rectangle first.
        rs = rects((1, 0, 3, 2))
        ss = rects((0, 0, 2, 2))
        (pair,) = sweep_rows(rs, ss)[0]
        assert pair == (rs[0], ss[0])

    def test_x_overlap_but_y_disjoint(self):
        rs = rects((0, 0, 2, 1))
        ss = rects((1, 5, 3, 6))
        assert sweep_rows(rs, ss)[0] == []


class TestPaperFigure1:
    """The worked example of Figure 1 (three r's, two s's)."""

    def setup_method(self):
        # Reconstructed so that the sweep stops at r1, s1, r2, s2, r3 and
        # produces the test pairs listed in the figure:
        #   r1: (r1, s1); s1: (s1, r2); r2: (r2, s2); s2: (s2, r3); r3: -
        self.r1 = (0.0, 2.0, 2.0, 4.0, "r1")
        self.s1 = (1.0, 1.0, 4.0, 3.0, "s1")
        self.r2 = (2.5, 2.5, 5.0, 5.0, "r2")
        self.s2 = (4.5, 0.0, 7.0, 3.0, "s2")
        self.r3 = (5.5, 2.0, 8.0, 4.0, "r3")

    def test_order_is_local_plane_sweep_order(self):
        pairs, _ = sweep_rows(
            x_sorted([self.r3, self.r1, self.r2]),
            x_sorted([self.s2, self.s1]),
        )
        assert pairs == [
            (self.r1, self.s1),
            (self.r2, self.s1),
            (self.r2, self.s2),
            (self.r3, self.s2),
        ]


class TestSweepAgainstBrute:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_clusters_match_brute(self, seed):
        rng = random.Random(seed)

        def make(n):
            out = []
            for i in range(n):
                x = rng.uniform(0, 100)
                y = rng.uniform(0, 100)
                out.append((x, y, x + rng.uniform(0, 10), y + rng.uniform(0, 10), i))
            return out

        rs = x_sorted(make(60))
        ss = x_sorted(make(60))
        assert positions(sweep_rows(rs, ss)[0]) == brute(rs, ss)

    def test_duplicated_coordinates(self):
        # Ties in xl must not lose pairs.
        rs = x_sorted(rects((0, 0, 1, 1), (0, 2, 1, 3), (0, 0, 3, 3)))
        ss = x_sorted(rects((0, 0, 1, 1), (0, 1.5, 2, 2.5)))
        assert positions(sweep_rows(rs, ss)[0]) == brute(rs, ss)

    def test_all_identical_rects(self):
        rs = rects(*[(0, 0, 1, 1)] * 5)
        ss = rects(*[(0, 0, 1, 1)] * 4)
        assert len(sweep_rows(rs, ss)[0]) == 20


class TestSweepCost:
    def test_tests_counts_y_comparisons(self):
        # Two r's far apart in x, one s overlapping only the first: the
        # second r must never be tested.
        rs = x_sorted(rects((0, 0, 1, 1), (100, 0, 101, 1)))
        ss = x_sorted(rects((0.5, 0, 1.5, 1)))
        pairs, tests = sweep_rows(rs, ss)
        # r1 stops first and scans s1 (1 test); s1 then stops but r2's xl
        # is beyond s1.xu, so r2 is never tested.
        assert tests == 1
        assert len(pairs) == 1

    def test_sweep_cheaper_than_brute_on_spread_data(self):
        rng = random.Random(42)
        rs = x_sorted([(i * 10.0, 0, i * 10.0 + 1, 1) for i in range(200)])
        ss = x_sorted(
            [(i * 10.0 + rng.random(), 0, i * 10.0 + 1.5, 1) for i in range(200)]
        )
        _, tests = sweep_rows(rs, ss)
        assert tests < 200 * 200 / 10  # far below quadratic


class TestRestrictToWindow:
    def test_filters_non_intersecting(self):
        items = rects((0, 0, 1, 1), (5, 5, 6, 6), (0.5, 0.5, 2, 2))
        got = restrict_rows(items, 0, 0, 1.2, 1.2)
        assert got == [items[0], items[2]]

    def test_preserves_order(self):
        items = x_sorted(rects((0, 0, 1, 1), (0.2, 0, 1, 1), (0.4, 0, 1, 1)))
        got = restrict_rows(items, 0, 0, 10, 10)
        assert got == items

    def test_restriction_does_not_change_join_result(self):
        rng = random.Random(7)

        def make():
            out = []
            for i in range(80):
                x, y = rng.uniform(0, 50), rng.uniform(0, 50)
                out.append((x, y, x + rng.uniform(0, 5), y + rng.uniform(0, 5), i))
            return out

        rs, ss = make(), make()
        mbr_r = Rect.union_all([Rect(*r[:4]) for r in rs])
        mbr_s = Rect.union_all([Rect(*s[:4]) for s in ss])
        window = mbr_r.intersection(mbr_s)
        assert window is not None
        corners = window.as_tuple()
        restricted = brute(restrict_rows(rs, *corners), restrict_rows(ss, *corners))
        assert restricted == brute(rs, ss)
