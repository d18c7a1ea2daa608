"""BoxTable: the columnar ingest currency and its input boundary."""

import math
import pickle

import numpy as np
import pytest

from repro.geometry import BoxTable, Rect

ITEMS = [
    (7, Rect(0.0, 1.0, 2.0, 3.0)),
    (2, Rect(-1.0, -1.0, -1.0, 4.0)),
    (3, Rect(5.0, 5.0, 6.5, 5.0)),
]


class TestShape:
    def test_from_items_round_trips(self):
        table = BoxTable.from_items(ITEMS)
        assert len(table) == 3
        assert table.oids.tolist() == [7, 2, 3]
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

    def test_append_takes_rows_then_adds_one(self):
        table = BoxTable.from_items(ITEMS)
        grown = table.append([2, 0], 9, Rect(1.0, 1.0, 2.0, 2.0))
        assert grown.items() == [ITEMS[2], ITEMS[0], (9, Rect(1.0, 1.0, 2.0, 2.0))]
        assert grown.oids.dtype == np.int64 and grown.xl.dtype == np.float64
        empty = BoxTable.from_items([]).append([], 4, ITEMS[0][1])
        assert empty.items() == [(4, ITEMS[0][1])]
        for name in ("oids", "xl", "yl", "xu", "yu"):
            assert not getattr(grown, name).flags.writeable

    def test_empty_table(self):
        table = BoxTable.from_items([])
        assert len(table) == 0 and table.items() == []
        with pytest.raises(ValueError):
            table.bbox()


class TestOidColumn:
    """``oids`` is one ``int64`` column, gathered and concatenated by numpy
    like the other four; the constructor refuses any other oid, naming
    the first row that holds one."""

    def table(self, oids):
        n = len(oids)
        return BoxTable(oids, [0.0] * n, [0.0] * n, [1.0] * n, [1.0] * n)

    def test_dtypes(self):
        assert self.table([3, 1, 2]).oids.dtype == np.int64
        assert self.table(range(3)).oids.dtype == np.int64
        assert self.table([]).oids.dtype == np.int64

    @pytest.mark.parametrize(
        "oids",
        [
            [5, -6, 2**63 - 1, -(2**63)],
            np.array([4, 2, 9], dtype=np.int32),
            np.array([4, 2, 2**32 - 1], dtype=np.uint32),
            np.array([1, 2**63 - 1], dtype=np.uint64),
            np.array([3, 8], dtype=object),
        ],
        ids=["python ints", "int32", "uint32", "uint64 in range", "object ints"],
    )
    def test_integers_are_accepted(self, oids):
        table = self.table(oids)
        assert table.oids.dtype == np.int64
        assert table.oids.tolist() == [int(oid) for oid in oids]

    def test_numpy_integer_scalars_are_accepted_from_items(self):
        items = [(np.int32(3), ITEMS[0][1]), (np.uint64(2**40), ITEMS[1][1])]
        table = BoxTable.from_items(items)
        assert table.oids.dtype == np.int64
        assert table.items() == [(3, ITEMS[0][1]), (2**40, ITEMS[1][1])]

    @pytest.mark.parametrize(
        "oids, row",
        [
            ([1, "b"], 1),
            ([4, None], 1),
            ([5, True], 1),
            ([6, 7, 2.0], 2),
            ([0, 2**63], 1),
            ([-(2**63) - 1], 0),
            (np.array([1, 2**63], dtype=np.uint64), 1),
            (np.array([3, "c"], dtype=object), 1),
            (np.array([1.0, 2.0]), 0),
            (np.array([False, True]), 0),
        ],
        ids=[
            "str",
            "None",
            "bool",
            "float",
            "2**63",
            "below int64",
            "uint64 past int64",
            "object array holding a str",
            "float64 column",
            "bool column",
        ],
    )
    def test_any_other_oid_is_refused_naming_its_row(self, oids, row):
        with pytest.raises(ValueError, match=f"^row {row} has oid .*int64"):
            self.table(oids)

    def test_an_oid_array_is_taken_as_it_is(self):
        column = np.arange(5, dtype=np.int64)
        table = self.table(column)
        assert np.shares_memory(table.oids, column)
        assert not table.oids.flags.writeable and column.flags.writeable
        # any other integer array becomes int64, not an array of scalars
        assert self.table(np.arange(5, dtype=np.int32)).oids.dtype == np.int64

    def test_a_second_dimension_is_refused(self):
        with pytest.raises(ValueError, match="one length"):
            BoxTable(np.zeros((2, 2), np.int64), [0.0] * 2, [0.0] * 2, [1.0] * 2, [1.0] * 2)

    def test_take_and_concat_keep_the_column(self):
        ints, items = self.table([5, 6, 7]), BoxTable.from_items(ITEMS)
        assert ints.take([2, 0]).oids.dtype == np.int64
        assert items.take([2, 0]).oids.tolist() == [3, 7]
        both = BoxTable.concat([ints, items])
        assert both.oids.dtype == np.int64
        assert both.oids.tolist() == [5, 6, 7, 7, 2, 3]

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
        with pytest.raises(ValueError, match="object 2 "):
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
        with pytest.raises(ValueError, match="object 11 "):
            BoxTable([10, 11, 12], *columns)

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
