"""The result currency: ``RowSet`` and ``PairTable`` stand for the tuple /
list answers they replace — equal to them, read-only, unhashable — while
holding nothing but columns until a caller iterates."""

import json
import pickle

import numpy as np
import pytest

from repro.geometry import PairTable, RowSet
from repro.geometry.rows import ITER_BLOCK, oid_column

WINDOW = RowSet.from_oids([3, 5, 8, 13])
KNN = RowSet.from_knn([(0.0, 7), (1.5, 2), (2.25, 9)])
PAIRS = PairTable.from_pairs([(1, 10), (1, 11), (4, 10)])
ALL = pytest.mark.parametrize("table", [WINDOW, KNN, PAIRS], ids=["window", "knn", "pairs"])


class TestOidColumn:
    def test_builtin_ints_make_int64(self):
        assert oid_column([1, 2, 3]).dtype == np.int64
        assert oid_column(range(3)).dtype == np.int64
        assert oid_column(()).dtype == np.int64  # the typed empty column

    @pytest.mark.parametrize(
        "oids", [["a", "b"], [1, "a"], [True, 2], [1.0, 2], [(1, 2), (3, 4)], [2**70]]
    )
    def test_anything_else_keeps_the_objects(self, oids):
        column = oid_column(oids)
        assert column.dtype == object and column.shape == (len(oids),)
        assert column.tolist() == oids
        assert [type(o) for o in column.tolist()] == [type(o) for o in oids]


class TestSequence:
    def test_equals_the_rows_it_stands_for_in_both_directions(self):
        assert WINDOW == (3, 5, 8, 13) and (3, 5, 8, 13) == WINDOW
        assert WINDOW == [3, 5, 8, 13] and [3, 5, 8, 13] == WINDOW
        assert KNN == ((0.0, 7), (1.5, 2), (2.25, 9))
        assert [(1, 10), (1, 11), (4, 10)] == PAIRS
        assert WINDOW != (3, 5, 8) and (3, 5, 8, 14) != WINDOW
        assert PAIRS != [(1, 10), (1, 11), (4, 11)]
        assert WINDOW == RowSet.from_oids([3, 5, 8, 13]) != KNN
        assert WINDOW != "3581" and WINDOW != 4

    def test_empty_tables(self):
        for empty in (RowSet.from_oids(()), RowSet.from_knn(()), PairTable.from_pairs(())):
            assert len(empty) == 0 and not empty
            assert empty == () and empty == [] and list(empty) == []
            assert empty[:] == empty and empty[2:5] == ()
            with pytest.raises(IndexError):
                empty[0]
        assert PairTable.from_pairs(iter(())) == []
        assert RowSet.union([]) == () and PairTable.concat([]) == ()

    @ALL
    def test_index_slice_and_mask(self, table):
        rows = list(table)
        assert table[0] == rows[0] and table[-1] == rows[-1]
        assert type(table[1:]) is type(table) and table[1:] == rows[1:]
        assert table[::-1] == rows[::-1]
        mask = np.arange(len(table)) != 1
        assert table[mask] == rows[:1] + rows[2:]
        assert rows[1] in table and table.index(rows[1]) == 1
        with pytest.raises(IndexError):
            table[len(table)]

    @ALL
    def test_unhashable_and_read_only(self, table):
        with pytest.raises(TypeError, match="unhashable"):
            hash(table)
        for column in table._columns:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]

    @ALL
    def test_iteration_yields_builtin_objects(self, table):
        flat = [x for row in table for x in (row if isinstance(row, tuple) else (row,))]
        assert {type(x) for x in flat} <= {int, float}
        assert json.loads(json.dumps([list(r) for r in PAIRS])) == [[1, 10], [1, 11], [4, 10]]
        assert json.dumps(list(WINDOW)) == "[3, 5, 8, 13]"

    @pytest.mark.parametrize("extra", [0, 1, ITER_BLOCK - 1])
    def test_iteration_block_by_block_is_the_rows(self, extra):
        """Longer than one block, one short, or empty: iteration yields
        exactly ``_rows()``, in order."""
        for n in (0, 2 * ITER_BLOCK + extra):
            oids = list(range(n, 0, -1))
            pairs = PairTable.from_oids(oids, [o * 7 for o in oids])
            knn = RowSet.from_knn([(0.5 * o, o) for o in oids])
            for table in (pairs, knn):
                rows = table._rows()
                assert len(rows) == n
                assert list(table) == rows
                assert [row for row in table] == rows
                assert type(iter(table)) is not list  # nothing built up front

    def test_a_callers_array_stays_writable(self):
        mine = np.array([2, 1])
        RowSet(mine)
        mine[0] = 9  # the table froze its own view only


class TestPickle:
    @pytest.mark.parametrize(
        "table, columns",
        [
            (RowSet(np.arange(5000)), 1),
            (RowSet(np.arange(5000), np.linspace(0.0, 1.0, 5000)), 2),
            (PairTable(np.arange(5000), np.arange(5000) * 7), 2),
        ],
    )
    def test_raw_buffers_no_per_row_opcodes(self, table, columns):
        blob = pickle.dumps(table, protocol=5)
        assert len(blob) <= 8 * len(table) * columns + 512
        back = pickle.loads(blob)
        assert type(back) is type(table) and back == table
        assert not any(column.flags.writeable for column in back._columns)

    def test_empty_and_object_tables_round_trip(self):
        for table in (RowSet.from_oids(()), PairTable.from_pairs([("a", 1), ("b", 2)])):
            assert pickle.loads(pickle.dumps(table)) == table


class TestMerges:
    def test_row_set_union_and_sorted(self):
        parts = [RowSet.from_oids([5, 1, 9]), RowSet.from_oids([9, 2]), RowSet.from_oids(())]
        assert RowSet.union(parts) == (1, 2, 5, 9)
        assert parts[0].sorted() == (1, 5, 9)
        words = [RowSet.from_oids(["pear", "fig"]), RowSet.from_oids(["fig", "apple"])]
        assert RowSet.union(words) == ("apple", "fig", "pear")

    def test_pair_table_concat_takes_tables_and_row_lists(self):
        merged = PairTable.concat([PAIRS, [[0, 1]], (), [(9, 9)]])
        assert type(merged) is PairTable and merged.left.dtype == np.int64
        assert merged == [(1, 10), (1, 11), (4, 10), (0, 1), (9, 9)]
        assert merged.sorted() == sorted(merged)

    def test_pair_table_sorts_object_columns(self):
        table = PairTable.from_pairs([("b", 2), ("a", 9), ("b", 1)])
        assert table.sorted() == [("a", 9), ("b", 1), ("b", 2)]
