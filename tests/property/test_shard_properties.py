"""Property-based tests for the shard partitioner and routed queries.

The laws the sharded tier must uphold for *any* dataset:

* every object is owned by exactly one shard (replication adds copies
  only to shards whose cells its MBR overlaps);
* the shard cells tile the fitted data MBR exactly;
* a window's routed shard set equals the brute-force set of shards
  whose regions the window overlaps, and the merged window answer
  equals a brute-force scan — in both partitioning modes;
* sharded kNN equals a brute-force scan, tie order included;
* the vectorised ``partition_rows`` is the scalar ``owner_of_point`` /
  ``shards_of_rect`` rule, row for row.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import BoxTable, Rect
from repro.rtree.query import oid_order_key
from repro.shard.ops import sharded_knn, sharded_window
from repro.shard.partition import (
    Partitioner,
    _cells_of_points,
    build_sharded,
    partition_items,
    partition_rows,
)

coords = st.floats(
    min_value=-100.0, max_value=100.0,
    allow_nan=False, allow_infinity=False, width=32,
)
extents = st.floats(
    min_value=0.0, max_value=25.0,
    allow_nan=False, allow_infinity=False, width=32,
)


@st.composite
def rects(draw):
    x = draw(coords)
    y = draw(coords)
    return Rect(x, y, x + draw(extents), y + draw(extents))


@st.composite
def datasets(draw):
    rs = draw(st.lists(rects(), min_size=1, max_size=60))
    return [(oid, rect) for oid, rect in enumerate(rs)]


modes = st.sampled_from(["grid", "zrange"])
shard_counts = st.integers(min_value=1, max_value=7)


class TestPartitionLaws:
    @given(datasets(), shard_counts, modes)
    @settings(max_examples=60, deadline=None)
    def test_every_object_owned_exactly_once(self, items, k, mode):
        pmap = Partitioner(k, mode=mode).fit(items)
        owned, replicated = partition_items(items, pmap)
        seen = sorted(oid for per in owned for oid, _ in per)
        assert seen == [oid for oid, _ in items]
        # replicas appear exactly on the overlapping shards
        by_oid = dict(items)
        for shard, per in enumerate(replicated):
            for oid, _ in per:
                assert shard in pmap.shards_of_rect(by_oid[oid])
        for oid, rect in items:
            copies = sum(
                1 for per in replicated if any(o == oid for o, _ in per)
            )
            assert copies == len(pmap.shards_of_rect(rect))

    @given(datasets(), shard_counts, modes)
    @settings(max_examples=60, deadline=None)
    def test_cells_tile_the_data_mbr(self, items, k, mode):
        pmap = Partitioner(k, mode=mode).fit(items)
        bounds = pmap.bounds()
        cells = [pmap.cell_rect(c) for c in range(pmap.gx * pmap.gy)]
        assert sum(c.area() for c in cells) <= bounds.area() + 1e-6
        assert math.isclose(
            sum(c.area() for c in cells), bounds.area(),
            rel_tol=1e-9, abs_tol=1e-9,
        )
        for cell in cells:
            assert cell.xl >= bounds.xl - 1e-9 and cell.xu <= bounds.xu + 1e-9
            assert cell.yl >= bounds.yl - 1e-9 and cell.yu <= bounds.yu + 1e-9
        # every shard's cells are accounted for exactly once
        assert sorted(
            cell for s in range(k) for cell in pmap.shard_cells(s)
        ) == list(range(pmap.gx * pmap.gy))


class TestRoutedQueryLaws:
    @given(datasets(), shard_counts, modes, rects())
    @settings(max_examples=60, deadline=None)
    def test_window_routing_and_answer_match_brute_force(
        self, items, k, mode, window
    ):
        sharded = build_sharded({"d": items}, k, mode=mode)
        pmap = sharded.pmap
        # the geometric router set == brute-force cell-overlap set for
        # in-bounds windows; clamping makes it a (safe) superset when the
        # window lies outside the fitted data MBR
        brute = {
            shard
            for shard in range(k)
            if any(
                window.intersects(pmap.cell_rect(cell))
                for cell in pmap.shard_cells(shard)
            )
        }
        geometric = set(pmap.shards_of_rect(window))
        if window.intersects(pmap.bounds()):
            assert geometric == brute
        else:
            assert geometric >= brute
        # content routing never drops a shard that holds a match
        routed = set(sharded.routed_shards("d", window))
        _, replicated = partition_items(items, pmap)
        holding = {
            shard
            for shard, per in enumerate(replicated)
            if any(rect.intersects(window) for _, rect in per)
        }
        assert holding <= routed
        got = sharded_window(sharded, "d", window)
        want = tuple(sorted(
            oid for oid, rect in items if rect.intersects(window)
        ))
        assert got == want

    @given(datasets(), shard_counts, modes, coords, coords,
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_knn_matches_brute_force_with_tie_order(
        self, items, shards, mode, x, y, k
    ):
        sharded = build_sharded({"d": items}, shards, mode=mode)
        got = sharded_knn(sharded, "d", x, y, k)

        def dist(rect):
            dx = max(rect.xl - x, 0.0, x - rect.xu)
            dy = max(rect.yl - y, 0.0, y - rect.yu)
            return math.sqrt(dx * dx + dy * dy)

        ranked = sorted(
            ((dist(rect), oid_order_key(oid), oid) for oid, rect in items),
        )
        want = tuple((float(d), oid) for d, _, oid in ranked[:k])
        assert got == want


# -- the array kernel against the scalar rule ---------------------------------
@st.composite
def fitted_maps(draw):
    """A PartitionMap fitted to a drawn dataset — one in four with a
    degenerate extent (every object on one vertical or horizontal line)."""
    items = draw(datasets())
    line = draw(st.sampled_from([None, None, None, "x", "y"]))
    if line == "x":
        items = [(oid, Rect(3.0, r.yl, 3.0, r.yu)) for oid, r in items]
    elif line == "y":
        items = [(oid, Rect(r.xl, -7.5, r.xu, -7.5)) for oid, r in items]
    k = draw(st.integers(min_value=1, max_value=9))
    return Partitioner(k, mode=draw(modes)).fit(items)


@st.composite
def axis_values(draw, origin, width, cells):
    """A coordinate placed where the cell arithmetic is sharpest: exactly
    on a cell edge (also one cell outside the grid), a hair either side
    of one, or anywhere from well below to well above the fitted extent."""
    edge = origin + draw(st.integers(min_value=-1, max_value=cells + 1)) * width
    kind = draw(st.sampled_from(["edge", "below", "above", "free"]))
    if kind == "edge":
        return edge
    if kind == "below":
        return math.nextafter(edge, -math.inf)
    if kind == "above":
        return math.nextafter(edge, math.inf)
    span = cells * width
    return draw(
        st.floats(min_value=origin - span - 1.0, max_value=origin + 2.0 * span + 1.0)
    )


@st.composite
def probe_rects(draw, pmap):
    """Rects on and off the grid, spanning any number of cells per axis."""
    xs = sorted(
        draw(st.lists(axis_values(pmap.x0, pmap.cell_w, pmap.gx), min_size=2, max_size=2))
    )
    ys = sorted(
        draw(st.lists(axis_values(pmap.y0, pmap.cell_h, pmap.gy), min_size=2, max_size=2))
    )
    return Rect(xs[0], ys[0], xs[1], ys[1])


oid_values = st.one_of(
    st.integers(), st.text(max_size=4), st.tuples(st.integers(), st.text(max_size=2))
)


class TestKernelMatchesScalarRule:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_partition_rows_is_the_scalar_rule_row_for_row(self, data):
        pmap = data.draw(fitted_maps())
        rects_ = data.draw(st.lists(probe_rects(pmap), min_size=1, max_size=40))
        oids = data.draw(
            st.lists(oid_values, min_size=len(rects_), max_size=len(rects_), unique=True)
        )
        table = BoxTable.from_items(zip(oids, rects_))
        owned, replicated = partition_rows(table, pmap)
        assert len(owned) == len(replicated) == pmap.shards
        for rows in (*owned, *replicated):
            assert rows.dtype.kind == "i"
            assert rows.tolist() == sorted(set(rows.tolist()))
        for row, rect in enumerate(rects_):
            cx = (rect.xl + rect.xu) / 2.0
            cy = (rect.yl + rect.yu) / 2.0
            assert [s for s in range(pmap.shards) if row in owned[s]] == [
                pmap.owner_of_point(cx, cy)
            ]
            assert {
                s for s in range(pmap.shards) if row in replicated[s]
            } == pmap.shards_of_rect(rect)
        # the item-list wrapper is the same kernel, oids carried through
        owned_items, replicated_items = partition_items(table, pmap)
        for rows, per_shard in zip((*owned, *replicated), (*owned_items, *replicated_items)):
            assert [oid for oid, _ in per_shard] == [oids[r] for r in rows.tolist()]
            assert [rect for _, rect in per_shard] == [rects_[r] for r in rows.tolist()]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_fit_reads_tables_and_items_alike(self, data):
        items = data.draw(datasets())
        k = data.draw(st.integers(min_value=1, max_value=9))
        mode = data.draw(modes)
        from_items = Partitioner(k, mode=mode).fit(items)
        assert Partitioner(k, mode=mode).fit(BoxTable.from_items(items)) == from_items
        # the cells zrange counted objects in are the scalar rule's cells
        table = BoxTable.from_items(items)
        assert _cells_of_points(from_items, *table.centers()).tolist() == [
            from_items.cell_of_point(*rect.center()) for _, rect in items
        ]
