"""The leaf step over packed blocks against the scalar step it replaced.

``join_node_pair`` on two data pages reads their blocks as rows; the
directory levels still run the scalar ``restrict_to_window`` +
``sweep_pairs`` over entry objects.  Both must give the same pairs in the
same order for the same test count — on small leaves full of tied ``xl``
values (where an unstable sort shows), degenerate boxes, disjoint leaves
(an empty window), either ablation switch off, and object-dtype oids.
"""

from operator import attrgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.planesweep import restrict_to_window, sweep_pairs
from repro.join.sequential import PairWindow, join_node_pair
from repro.rtree.entry import Entry
from repro.rtree.node import LeafRows, Node

_xl = attrgetter("xl")


def scalar_step(leaf_r, leaf_s, use_restriction, use_sweep):
    """The node-pair step over one ``Entry`` a data row, as it ran before
    leaves were blocks."""
    window = PairWindow(leaf_r, leaf_s)
    if window.empty:
        return [], 0
    entries_r = leaf_r.data_entries()
    entries_s = leaf_s.data_entries()
    tests = 0
    if use_restriction:
        tests = len(entries_r) + len(entries_s)
        entries_r = restrict_to_window(entries_r, window)
        entries_s = restrict_to_window(entries_s, window)
    if use_sweep:
        sweep = sweep_pairs(sorted(entries_r, key=_xl), sorted(entries_s, key=_xl))
        return sweep.pairs, tests + sweep.tests
    matched = [(er, es) for er in entries_r for es in entries_s if er.intersects(es)]
    return matched, tests + len(entries_r) * len(entries_s)


def entry_row(entry):
    return (entry.xl, entry.yl, entry.xu, entry.yu, entry.oid)


#: corners on a coarse grid (ties everywhere), extents often zero
boxes = st.tuples(
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 3), st.integers(0, 3)
).map(lambda b: (b[0] / 2, b[1] / 2, (b[0] + b[2]) / 2, (b[1] + b[3]) / 2))


@st.composite
def leaf(draw, base):
    rows = draw(st.lists(boxes, min_size=1, max_size=12))
    shift = draw(st.sampled_from([0.0, 0.0, 0.5, 20.0]))  # 20: disjoint
    named = draw(st.booleans())
    entries = [
        Entry(xl + shift, yl, xu + shift, yu, oid=(f"{base}-{i}" if named else base + i))
        for i, (xl, yl, xu, yu) in enumerate(rows)
    ]
    return Node(0, entries)


@given(
    leaf(0),
    leaf(100),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_block_step_matches_the_scalar_step(
    leaf_r, leaf_s, use_restriction, use_sweep, through_memo
):
    if through_memo:
        memo = LeafRows()
        block = join_node_pair(
            leaf_r, leaf_s, use_restriction=use_restriction, use_sweep=use_sweep,
            rows=memo,
        )
    else:
        block = join_node_pair(
            leaf_r, leaf_s, use_restriction=use_restriction, use_sweep=use_sweep
        )
    scalar = scalar_step(leaf_r, leaf_s, use_restriction, use_sweep)
    assert block[0] == [(entry_row(r), entry_row(s)) for r, s in scalar[0]]
    assert block[1] == scalar[1]


def test_an_unstable_xl_order_would_show():
    """Equal ``xl`` values in reverse oid order: only a stable sort keeps
    the block order the scalar step sweeps in."""
    entries_r = [Entry(1.0, 0.0, 2.0, 1.0, oid=i) for i in range(6)]
    entries_s = [Entry(1.0, 0.5, 2.0, 0.75, oid=10 + i) for i in range(6)]
    leaf_r, leaf_s = Node(0, entries_r[::-1]), Node(0, entries_s)
    pairs, tests = join_node_pair(leaf_r, leaf_s)
    expected, expected_tests = scalar_step(leaf_r, leaf_s, True, True)
    assert [(r[4], s[4]) for r, s in pairs] == [(r.oid, s.oid) for r, s in expected]
    assert [r[4] for r, _ in pairs[:6]] == [5] * 6
    assert tests == expected_tests == 12 + 6 * 6  # restriction + one scan a row
