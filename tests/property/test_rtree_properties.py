"""Property-based tests (hypothesis) for the R*-tree."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.rtree import RStarTree, str_bulk_load, window_query

coords = st.floats(min_value=-500, max_value=500, allow_nan=False, allow_infinity=False)
sizes = st.floats(min_value=0, max_value=50, allow_nan=False)


@st.composite
def rect_st(draw):
    xl = draw(coords)
    yl = draw(coords)
    return Rect(xl, yl, xl + draw(sizes), yl + draw(sizes))


rect_lists = st.lists(rect_st(), max_size=120)


class TestInsertProperties:
    @given(rect_lists)
    @settings(max_examples=40, deadline=None)
    def test_invariants_after_inserts(self, rects):
        tree = RStarTree(dir_capacity=5, data_capacity=5)
        for i, r in enumerate(rects):
            tree.insert(i, r)
        tree.validate()

    @given(rect_lists, rect_st())
    @settings(max_examples=40, deadline=None)
    def test_window_query_equals_brute_force(self, rects, window):
        tree = RStarTree(dir_capacity=5, data_capacity=5)
        for i, r in enumerate(rects):
            tree.insert(i, r)
        got = sorted(e.oid for e in window_query(tree, window))
        want = sorted(i for i, r in enumerate(rects) if r.intersects(window))
        assert got == want

    @given(rect_lists)
    @settings(max_examples=30, deadline=None)
    def test_every_object_findable_by_its_own_rect(self, rects):
        tree = RStarTree(dir_capacity=5, data_capacity=5)
        for i, r in enumerate(rects):
            tree.insert(i, r)
        for i, r in enumerate(rects):
            assert i in {e.oid for e in window_query(tree, r)}


class TestDeleteProperties:
    @given(rect_lists, st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_delete_subset_preserves_rest(self, rects, rng):
        tree = RStarTree(dir_capacity=5, data_capacity=5)
        for i, r in enumerate(rects):
            tree.insert(i, r)
        doomed = {i for i in range(len(rects)) if rng.random() < 0.5}
        for i in sorted(doomed):
            assert tree.delete(i, rects[i])
        tree.validate()
        everything = Rect(-2000, -2000, 2000, 2000)
        remaining = {e.oid for e in window_query(tree, everything)}
        assert remaining == set(range(len(rects))) - doomed


class TestBulkLoadProperties:
    @given(rect_lists)
    @settings(max_examples=40, deadline=None)
    def test_bulk_invariants_and_completeness(self, rects):
        tree = str_bulk_load(
            list(enumerate(rects)), dir_capacity=5, data_capacity=5
        )
        tree.validate()
        everything = Rect(-2000, -2000, 2000, 2000)
        assert {e.oid for e in window_query(tree, everything)} == set(range(len(rects)))

    @given(rect_lists, rect_st())
    @settings(max_examples=30, deadline=None)
    def test_bulk_and_dynamic_answer_queries_identically(self, rects, window):
        bulk = str_bulk_load(list(enumerate(rects)), dir_capacity=5, data_capacity=5)
        dynamic = RStarTree(dir_capacity=5, data_capacity=5)
        for i, r in enumerate(rects):
            dynamic.insert(i, r)
        assert sorted(e.oid for e in window_query(bulk, window)) == sorted(
            e.oid for e in window_query(dynamic, window)
        )
