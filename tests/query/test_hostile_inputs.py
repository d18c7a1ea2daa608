"""Hostile inputs at the library edge: the ``window_query`` /
``nearest_neighbors`` / ``multi_window_query`` dispatchers and the
``parallel_window_query`` / ``parallel_knn`` simulators, called directly
(no serving front door above them), on both backends.

A NaN compares false with everything: unchecked, a NaN kNN point came back
as *k* arbitrary objects at distance ``nan`` — different ones per backend
— and a NaN window as a silent ``[]``.  The dispatchers reject both with
the front door's wording, from the front door's own check.

A node tree's ``insert`` and ``delete`` refuse the boxes ``BoxTable``
refuses, in its words: unchecked, a NaN box was stored where no window
finds it and no delete removes it, while ``size`` counted it."""

import math
from types import SimpleNamespace

import pytest

from repro.datagen import build_tree, paper_maps
from repro.geometry import BoxTable, Rect
from repro.query import (
    ParallelQueryConfig,
    multi_window_query,
    parallel_knn,
    parallel_window_query,
)
from repro.rtree import (
    FlatRTree,
    build_flat_tree,
    nearest_neighbors,
    str_bulk_load,
    window_query,
)

NAN, INF = math.nan, math.inf
UNIT = Rect(0.0, 0.0, 1.0, 1.0)
EVERYTHING = Rect(-INF, -INF, INF, INF)
SVM = ParallelQueryConfig(processors=2, disks=2, total_buffer_pages=8)

BACKENDS = {
    "node": (build_tree, str_bulk_load),
    "flat": (build_flat_tree, FlatRTree.build),
}


@pytest.fixture(scope="module")
def map1():
    return paper_maps(scale=0.002, seed=3)[0]


@pytest.fixture(params=sorted(BACKENDS))
def trees(request, map1):
    """``(tree over map 1, empty tree)`` of one backend."""
    from_map, from_items = BACKENDS[request.param]
    return from_map(map1), from_items([])


#: (call on a tree, the message it must be refused with)
REJECTED = [
    (lambda t: nearest_neighbors(t, NAN, 0.0, 3), "x must be a finite number, got nan"),
    (lambda t: nearest_neighbors(t, 0.0, NAN, 3), "y must be a finite number, got nan"),
    (lambda t: nearest_neighbors(t, INF, 0.0, 3), "x must be a finite number, got inf"),
    (lambda t: nearest_neighbors(t, 0.0, -INF, 3), "y must be a finite number, got -inf"),
    (lambda t: nearest_neighbors(t, "0", 0.0, 3), "x must be a finite number, got '0'"),
    (lambda t: nearest_neighbors(t, 0.0, 0.0, 0), "k must be an integer >= 1, got 0"),
    (lambda t: nearest_neighbors(t, 0.0, 0.0, 2.5), "k must be an integer >= 1, got 2.5"),
    (lambda t: nearest_neighbors(t, 0.0, 0.0, True), "k must be an integer >= 1, got True"),
    (lambda t: window_query(t, Rect(NAN, 0, 1, 1)), "window.xl must be a finite"),
    (lambda t: window_query(t, Rect(0, NAN, 1, 1)), "window.yl must be a finite"),
    (lambda t: window_query(t, Rect(0, 0, NAN, 1)), "window.xu must be a finite"),
    (lambda t: window_query(t, Rect(0, 0, 1, NAN)), "window.yu must be a finite"),
    (
        lambda t: multi_window_query(t, [UNIT, Rect(0, 0, 1, NAN), UNIT]),
        "window.yu must be a finite number, got nan",
    ),
    (lambda t: parallel_knn(t, NAN, 0.0, 3, SVM), "x must be a finite number, got nan"),
    (lambda t: parallel_knn(t, 0.0, INF, 3, SVM), "y must be a finite number, got inf"),
    (lambda t: parallel_knn(t, 0.0, 0.0, 0, SVM), "k must be an integer >= 1, got 0"),
    (lambda t: parallel_knn(t, 0.0, 0.0, 2.5, SVM), "k must be an integer >= 1, got 2.5"),
    (lambda t: parallel_knn(t, 0.0, 0.0, True, SVM), "k must be an integer >= 1, got True"),
    (
        lambda t: parallel_window_query(t, Rect(0, 0, NAN, 1), SVM),
        "window.xu must be a finite number, got nan",
    ),
]


@pytest.mark.parametrize("call, message", REJECTED)
def test_rejected_the_same_on_both_backends_and_on_an_empty_tree(trees, call, message):
    for tree in trees:
        with pytest.raises(ValueError, match=message):
            call(tree)


def test_what_already_behaved_stays_pinned(trees, map1):
    tree, empty = trees
    everything = sorted(oid for oid, _ in map1.items())
    # k > n: every object, nearest first — not an error, not padding
    found = nearest_neighbors(tree, 0.01, 0.01, len(map1) + 50)
    assert sorted(entry.oid for _, entry in found) == everything
    assert [d for d, _ in found] == sorted(d for d, _ in found)
    # an infinite window is a legitimate window: the whole map
    assert sorted(e.oid for e in window_query(tree, EVERYTHING)) == everything
    assert [len(rows) for rows in multi_window_query(tree, [EVERYTHING, UNIT])] == [
        len(map1),
        len(window_query(tree, UNIT)),
    ]
    # empty trees answer everything with nothing
    assert nearest_neighbors(empty, 0.0, 0.0, 3) == []
    assert window_query(empty, UNIT) == []
    assert multi_window_query(empty, [UNIT, EVERYTHING]) == [[], []]
    assert multi_window_query(tree, []) == []


#: (update of a 50-entry node tree, the box it names) — every one is
#: refused as the bulk builders' BoxTable refuses the same box
REFUSED_UPDATES = [
    (lambda t: t.insert(99, Rect(NAN, 0, 1, 1)), (99, Rect(NAN, 0, 1, 1))),
    (lambda t: t.insert(99, Rect(0, 0, 1, INF)), (99, Rect(0, 0, 1, INF))),
    (lambda t: t.insert(99, Rect(-INF, 0, 1, 1)), (99, Rect(-INF, 0, 1, 1))),
    (
        lambda t: t.insert("x", SimpleNamespace(xl=2.0, yl=0.0, xu=1.0, yu=1.0)),
        ("x", SimpleNamespace(xl=2.0, yl=0.0, xu=1.0, yu=1.0)),
    ),
    (lambda t: t.delete(99, Rect(NAN, 0, 1, 1)), (99, Rect(NAN, 0, 1, 1))),
    (lambda t: t.delete(3, Rect(3, 3, 4, INF)), (3, Rect(3, 3, 4, INF))),
]


@pytest.mark.parametrize("update, row", REFUSED_UPDATES)
def test_node_tree_updates_refuse_what_the_table_refuses(update, row):
    oid, box = row
    with pytest.raises(ValueError) as by_table:
        BoxTable.from_rects([oid], [box])
    tree = str_bulk_load([(i, Rect(i, i, i + 1.0, i + 1.0)) for i in range(50)])
    with pytest.raises(ValueError) as by_tree:
        update(tree)
    assert str(by_tree.value) == str(by_table.value)
    assert f"object {oid!r} has a non-finite or inverted box" in str(by_tree.value)
    tree.validate()
    assert tree.size == 50 == len(window_query(tree, EVERYTHING))
