"""BoxTable: the columnar ingest currency and its input boundary."""

import math
import pickle

import numpy as np
import pytest

from repro.geometry import BoxTable, Rect

ITEMS = [
    (7, Rect(0.0, 1.0, 2.0, 3.0)),
    ("b", Rect(-1.0, -1.0, -1.0, 4.0)),
    ((3, "c"), Rect(5.0, 5.0, 6.5, 5.0)),
]


class TestShape:
    def test_from_items_round_trips(self):
        table = BoxTable.from_items(ITEMS)
        assert len(table) == 3
        assert table.oids.tolist() == [7, "b", (3, "c")]
        assert table.xl.dtype == np.float64
        assert table.xu.tolist() == [2.0, -1.0, 6.5]
        assert table.items() == ITEMS

    def test_from_items_reads_any_iterable_and_passes_a_table_through(self):
        table = BoxTable.from_items(iter(ITEMS))
        assert table.items() == ITEMS
        assert BoxTable.from_items(table) is table

    def test_from_rects_pairs_oids_with_anything_box_shaped(self):
        table = BoxTable.from_rects(
            [oid for oid, _ in ITEMS], [rect for _, rect in ITEMS]
        )
        assert table.items() == ITEMS

    def test_take_keeps_the_given_order(self):
        table = BoxTable.from_items(ITEMS)
        taken = table.take(np.array([2, 0]))
        assert taken.items() == [ITEMS[2], ITEMS[0]]
        assert len(table.take(np.array([], dtype=np.int64))) == 0

    def test_take_accepts_any_integer_index_sequence(self):
        table = BoxTable.from_items(ITEMS)
        for rows in ([2, 0], (2, 0), range(2, -1, -2), np.array([2, 0], np.int32)):
            assert table.take(rows).items() == [ITEMS[2], ITEMS[0]]
        assert len(table.take([])) == 0

    def test_bbox_and_centers(self):
        table = BoxTable.from_items(ITEMS)
        assert table.bbox() == Rect(-1.0, -1.0, 6.5, 5.0)
        cx, cy = table.centers()
        assert cx.tolist() == [1.0, -1.0, 5.75]
        assert cy.tolist() == [2.0, 1.5, 5.0]

    def test_concat_appends_rows_in_order(self):
        table = BoxTable.concat(
            [BoxTable.from_items(ITEMS[:1]), BoxTable.from_items(ITEMS[1:])]
        )
        assert table.items() == ITEMS

    def test_empty_table(self):
        table = BoxTable.from_items([])
        assert len(table) == 0 and table.items() == []
        with pytest.raises(ValueError):
            table.bbox()


class TestOidColumn:
    """``oids`` is one column — ``int64`` for builtin ints, ``object``
    otherwise — gathered and concatenated by numpy like the other four."""

    def table(self, oids):
        n = len(oids)
        return BoxTable(oids, [0.0] * n, [0.0] * n, [1.0] * n, [1.0] * n)

    def test_dtypes(self):
        assert self.table([3, 1, 2]).oids.dtype == np.int64
        assert self.table(range(3)).oids.dtype == np.int64
        assert self.table([]).oids.dtype == np.int64
        assert self.table([3, "b"]).oids.dtype == object
        assert self.table([2**70]).oids.tolist() == [2**70]

    def test_an_oid_array_is_taken_as_it_is(self):
        column = np.arange(5, dtype=np.int64)
        table = self.table(column)
        assert np.shares_memory(table.oids, column)
        assert not table.oids.flags.writeable and column.flags.writeable
        # any other integer array becomes int64, not an array of scalars
        assert self.table(np.arange(5, dtype=np.int32)).oids.dtype == np.int64
        assert self.table(np.array(["a", "b"])).items()[0][0] == "a"

    def test_a_second_dimension_is_refused(self):
        with pytest.raises(ValueError, match="one length"):
            BoxTable(np.zeros((2, 2), np.int64), [0.0] * 2, [0.0] * 2, [1.0] * 2, [1.0] * 2)

    def test_take_and_concat_keep_the_column(self):
        ints, mixed = self.table([5, 6, 7]), BoxTable.from_items(ITEMS)
        assert ints.take([2, 0]).oids.dtype == np.int64
        assert mixed.take([2, 0]).oids.tolist() == [(3, "c"), 7]
        both = BoxTable.concat([ints, mixed])
        assert both.oids.tolist() == [5, 6, 7, 7, "b", (3, "c")]
        assert {type(oid) for oid in both.oids.tolist()[:4]} == {int}

    def test_items_hands_out_builtin_oids(self):
        assert [type(oid) for oid, _ in self.table([5, 6]).items()] == [int, int]


class TestPickle:
    @pytest.mark.parametrize("items", [ITEMS, [(i, r) for i, (_, r) in enumerate(ITEMS)], []])
    def test_round_trip(self, items):
        table = BoxTable.from_items(items)
        back = pickle.loads(pickle.dumps(table))
        assert back.items() == items and back.oids.dtype == table.oids.dtype
        for name in ("oids", "xl", "yl", "xu", "yu"):
            assert not getattr(back, name).flags.writeable

    def test_a_table_comes_back_through_the_validating_constructor(self):
        rebuild, columns = BoxTable.from_items(ITEMS).__reduce__()
        columns = [column.copy() for column in columns]
        columns[3][1] = math.nan
        with pytest.raises(ValueError, match="object 'b' "):
            rebuild(*columns)


class TestSharing:
    """One table is handed to every builder, so nobody may write it."""

    def test_columns_are_read_only(self):
        table = BoxTable.from_items(ITEMS)
        for name in ("xl", "yl", "xu", "yu"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[0] = 9.0
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name).sort()
        assert table.items() == ITEMS

    def test_the_callers_own_arrays_stay_writable(self):
        columns = [np.array([0.0, 1.0]) for _ in range(4)]
        BoxTable([0, 1], *columns)
        for column in columns:
            column[0] = 5.0  # the table froze its views, not these

    def test_take_and_concat_return_fresh_tables(self):
        table = BoxTable.from_items(ITEMS)
        everything = np.arange(len(table))
        for fresh in (table.take(everything), BoxTable.concat([table])):
            assert fresh is not table and fresh.oids is not table.oids
            assert fresh.items() == table.items()
            for name in ("xl", "yl", "xu", "yu"):
                assert not np.shares_memory(getattr(fresh, name), getattr(table, name))


class TestBoundary:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", range(4))
    def test_non_finite_coordinate_names_the_first_offender(self, bad, column):
        columns = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
        columns[column][1] = bad
        columns[column][2] = bad
        with pytest.raises(ValueError, match="'second'"):
            BoxTable(["first", "second", "third"], *columns)

    def test_nan_hidden_inside_a_rect_is_caught(self):
        # Rect lets NaN through (``nan < 0`` is false); the table does not.
        smuggled = Rect(0.0, 0.0, math.nan, math.nan)
        with pytest.raises(ValueError, match="object 41 "):
            BoxTable.from_items([(40, Rect(0, 0, 1, 1)), (41, smuggled)])

    def test_inverted_box(self):
        with pytest.raises(ValueError, match="object 1 "):
            BoxTable([0, 1], [0.0, 2.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="object 0 "):
            BoxTable([0], [0.0], [3.0], [1.0], [1.0])

    def test_ragged_columns(self):
        with pytest.raises(ValueError, match="one length"):
            BoxTable([0, 1], [0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
