"""Property-based tests (hypothesis) for the flat packed backend.

Two families: **structural** — a packed build satisfies the layout
invariants (level offsets partition the directory arrays, parent MBRs
exactly cover their children — level 1's read from the table through
``rows`` — every box is reachable from the root) for any
item set and fan-out; **differential** — the vectorized window, k-NN and
join kernels agree with scalar brute force over the raw items, which
never saw the packing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.rtree.flat import FlatRTree
from repro.rtree.query import oid_order_key, window_query

from tests.flat_oracle import brute_join, brute_knn, brute_window

coords = st.floats(
    min_value=-500, max_value=500, allow_nan=False, allow_infinity=False
)
sizes = st.floats(min_value=0, max_value=50, allow_nan=False)
node_sizes = st.integers(min_value=2, max_value=9)


@st.composite
def rect_st(draw):
    xl = draw(coords)
    yl = draw(coords)
    return Rect(xl, yl, xl + draw(sizes), yl + draw(sizes))


rect_lists = st.lists(rect_st(), max_size=120)


def build(rects, node_size):
    return FlatRTree.build(list(enumerate(rects)), node_size=node_size)


class TestStructuralInvariants:
    @given(rect_lists, node_sizes)
    @settings(max_examples=60, deadline=None)
    def test_packed_layout_invariants(self, rects, node_size):
        tree = build(rects, node_size)
        tree.validate()  # level counts, offset partition, exact MBR cover
        assert len(tree.rows) == tree.size == len(rects)
        if rects:
            # Level 0 has no slice of the directory arrays; the directory
            # levels' offsets strictly increase and end at their length.
            offsets = tree.level_offsets.tolist()
            assert offsets[:2] == [0, 0] and offsets[-1] == len(tree.xmin)
            assert all(a < b for a, b in zip(offsets[1:], offsets[2:]))
            # Each level-1 box is the min/max over its children's table
            # rows, read through rows.
            table = tree.table
            for node in range(offsets[2] - offsets[1]):
                lo, hi = tree.child_range(1, node)
                rows = tree.rows[lo:hi]
                assert tree.boxes(1, node) == [
                    table.xl[rows].min(), table.yl[rows].min(),
                    table.xu[rows].max(), table.yu[rows].max(),
                ]
            # Child MBR containment, top-down from the single root.
            root = tree.mbr()
            for entry in window_query(tree, root):
                assert root.xl <= entry.xl and entry.xu <= root.xu
                assert root.yl <= entry.yl and entry.yu <= root.yu

    @given(rect_lists, node_sizes)
    @settings(max_examples=40, deadline=None)
    def test_every_box_reachable_by_its_own_rect(self, rects, node_size):
        tree = build(rects, node_size)
        for oid, rect in enumerate(rects):
            found = {e.oid for e in window_query(tree, rect)}
            assert oid in found

    @given(rect_lists, node_sizes)
    @settings(max_examples=40, deadline=None)
    def test_oids_are_a_permutation(self, rects, node_size):
        tree = build(rects, node_size)
        # a map build indexes every table row once, oids by reference
        assert sorted(tree.rows) == list(range(len(rects)))
        assert sorted(tree.table.oids[tree.rows]) == list(range(len(rects)))


class TestDifferentialKernels:
    @given(rect_lists, rect_st(), node_sizes)
    @settings(max_examples=60, deadline=None)
    def test_window_kernel_equals_brute_force(self, rects, window, node_size):
        tree = build(rects, node_size)
        items = list(enumerate(rects))
        got = {e.oid for e in window_query(tree, window)}
        assert got == brute_window(items, window)

    @given(rect_lists, coords, coords, st.integers(min_value=1, max_value=200), node_sizes)
    @settings(max_examples=60, deadline=None)
    def test_knn_equals_brute_force_ordered(self, rects, x, y, k, node_size):
        tree = build(rects, node_size)
        items = list(enumerate(rects))
        got = [(d, e.oid) for d, e in tree.nearest(x, y, k)]
        expected = brute_knn(items, x, y, k)
        assert len(got) == min(k, len(rects))  # k > dataset truncates
        assert [oid for _, oid in got] == [oid for _, oid in expected]
        for (gd, _), (ed, _) in zip(got, expected):
            assert abs(gd - ed) <= 1e-9 * max(1.0, ed)

    @given(rect_lists, rect_lists, node_sizes)
    @settings(max_examples=40, deadline=None)
    def test_join_kernel_equals_brute_force(self, rects_r, rects_s, node_size):
        from repro.join.flat import flat_join

        tree_r = build(rects_r, node_size)
        tree_s = build(rects_s, node_size)
        pairs = flat_join(tree_r, tree_s).pairs
        expected = brute_join(list(enumerate(rects_r)), list(enumerate(rects_s)))
        assert set(pairs) == expected
        assert len(pairs) == len(expected)

    @given(coords, coords, st.integers(min_value=1, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_empty_tree_answers_empty(self, x, y, k):
        tree = FlatRTree.build([])
        assert tree.nearest(x, y, k) == []
        assert window_query(tree, Rect(x, y, x + 1, y + 1)) == []

    @given(st.lists(st.one_of(st.integers(), st.text(), st.floats(allow_nan=False)), max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_oid_order_key_total_and_consistent(self, oids):
        keys = sorted(oid_order_key(o) for o in oids)  # must not raise
        assert len(keys) == len(oids)
