"""The one node-pair step against the scalar object step it replaced.

``join_node_pair`` reads a page of either kind as rows — ``(xl, yl, xu,
yu, child)`` on a directory page, ``(xl, yl, xu, yu, oid)`` on a data
page — and sweeps them with ``sweep_rows``.  The oracle below is the step
as it ran over ``Entry`` objects: its own pair window, restriction,
stable ``xl`` sort and plane sweep.  Both must give the same pairs in the
same order for the same test count — on data pages and on directory
pages full of tied ``xl`` values (where an unstable sort shows),
degenerate boxes, disjoint nodes (an empty window), either ablation
switch off, and object-dtype oids.
"""

from operator import attrgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.join.sequential import join_node_pair
from repro.rtree.entry import Entry
from repro.rtree.node import Node, NodeRows

_xl = attrgetter("xl")


def object_sweep(rs, ss):
    """The [BKS 93] plane sweep over objects with ``xl, yl, xu, yu``, both
    sequences sorted by ``xl``: the pairs in local plane-sweep order and
    the y-overlap tests spent."""
    pairs = []
    tests = i = j = 0
    while i < len(rs) and j < len(ss):
        if rs[i].xl <= ss[j].xl:
            t, others, k, flip = rs[i], ss, j, False
            i += 1
        else:
            t, others, k, flip = ss[j], rs, i, True
            j += 1
        while k < len(others) and others[k].xl <= t.xu:
            c = others[k]
            tests += 1
            if t.yl <= c.yu and c.yl <= t.yu:
                pairs.append((c, t) if flip else (t, c))
            k += 1
    return pairs, tests


def in_window(entries, xl, yl, xu, yu):
    return [e for e in entries if e.xl <= xu and xl <= e.xu and e.yl <= yu and yl <= e.yu]


def scalar_step(node_r, node_s, use_restriction, use_sweep):
    """The node-pair step over one ``Entry`` an entry of either level."""
    a_xl, a_yl, a_xu, a_yu = node_r.mbr_tuple()
    b_xl, b_yl, b_xu, b_yu = node_s.mbr_tuple()
    window = (max(a_xl, b_xl), max(a_yl, b_yl), min(a_xu, b_xu), min(a_yu, b_yu))
    if window[2] < window[0] or window[3] < window[1]:
        return [], 0
    entries_r = node_r.entries if node_r.level else node_r.data_entries()
    entries_s = node_s.entries if node_s.level else node_s.data_entries()
    tests = 0
    if use_restriction:
        tests = len(entries_r) + len(entries_s)
        entries_r = in_window(entries_r, *window)
        entries_s = in_window(entries_s, *window)
    if use_sweep:
        pairs, swept = object_sweep(sorted(entries_r, key=_xl), sorted(entries_s, key=_xl))
        return pairs, tests + swept
    matched = [(er, es) for er in entries_r for es in entries_s if er.intersects(es)]
    return matched, tests + len(entries_r) * len(entries_s)


def entry_row(entry):
    return (entry.xl, entry.yl, entry.xu, entry.yu,
            entry.oid if entry.child is None else entry.child)


#: corners on a coarse grid (ties everywhere), extents often zero
boxes = st.tuples(
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 3), st.integers(0, 3)
).map(lambda b: (b[0] / 2, b[1] / 2, (b[0] + b[2]) / 2, (b[1] + b[3]) / 2))


@st.composite
def node(draw, base, level):
    """A data page (level 0), or a directory page whose entries point at
    one-entry leaves of their own box."""
    rows = draw(st.lists(boxes, min_size=1, max_size=12))
    shift = draw(st.sampled_from([0.0, 0.0, 0.5, 20.0]))  # 20: disjoint
    entries = []
    for i, (xl, yl, xu, yu) in enumerate(rows):
        box = (xl + shift, yl, xu + shift, yu)
        oid = base + i
        if level:
            entries.append(Entry(*box, child=Node(0, [Entry(*box, oid=oid)])))
        else:
            entries.append(Entry(*box, oid=oid))
    return Node(level, entries)


@given(
    st.sampled_from([0, 1]).flatmap(lambda level: st.tuples(node(0, level), node(100, level))),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_block_step_matches_the_scalar_step(
    pair, use_restriction, use_sweep, through_memo
):
    node_r, node_s = pair
    if through_memo:
        memo = NodeRows()
        block = join_node_pair(
            node_r, node_s, use_restriction=use_restriction, use_sweep=use_sweep,
            rows=memo,
        )
    else:
        block = join_node_pair(
            node_r, node_s, use_restriction=use_restriction, use_sweep=use_sweep
        )
    scalar = scalar_step(node_r, node_s, use_restriction, use_sweep)
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
