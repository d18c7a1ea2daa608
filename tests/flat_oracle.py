"""Shared differential oracle for the flat packed backend.

One module answers every "do the backends agree?" question: it builds
seeded datasets (uniform, clustered, degenerate), constructs both the
pointer R*-tree and the packed :class:`~repro.rtree.flat.FlatRTree` over
the *same* items, computes ground truth by brute force, and asserts that
window queries, k-NN and joins return identical result sets — and for
k-NN the identical ordered ``(distance, oid)`` list — on both backends.

The pytest parity suites (``tests/rtree/test_flat_parity.py``,
``tests/join/test_flat_join_parity.py``) and the hypothesis property
suite (``tests/property/test_flat_properties.py``) all drive their
checks through these helpers, so backend-parity has exactly one
definition in the tree.
"""

from __future__ import annotations

import random

from repro.geometry.rect import Rect
from repro.rtree import str_bulk_load
from repro.rtree.flat import FlatRTree
from repro.rtree.query import QueryStats, nearest_neighbors, window_query

# -- seeded datasets ---------------------------------------------------------


def uniform_items(n, seed, side=100.0, max_extent=2.0):
    """Uniformly placed boxes of random (possibly zero) extent."""
    rng = random.Random(seed)
    items = []
    for oid in range(n):
        x, y = rng.uniform(0, side), rng.uniform(0, side)
        w, h = rng.uniform(0, max_extent), rng.uniform(0, max_extent)
        items.append((oid, Rect(x, y, x + w, y + h)))
    return items


def clustered_items(n, seed, clusters=8, side=100.0, spread=3.0):
    """Boxes packed into a few dense clusters (skewed node occupancy)."""
    rng = random.Random(seed)
    centers = [
        (rng.uniform(0, side), rng.uniform(0, side)) for _ in range(clusters)
    ]
    items = []
    for oid in range(n):
        cx, cy = centers[oid % clusters]
        x, y = rng.gauss(cx, spread), rng.gauss(cy, spread)
        w, h = rng.uniform(0, 1.0), rng.uniform(0, 1.0)
        items.append((oid, Rect(x, y, x + w, y + h)))
    return items


def degenerate_items(n, seed, side=20.0):
    """Duplicates and zero-area boxes: every tie-breaking path fires."""
    rng = random.Random(seed)
    items = []
    for oid in range(n):
        kind = oid % 3
        if kind == 0:  # exact duplicates of one box
            items.append((oid, Rect(5.0, 5.0, 6.0, 6.0)))
        elif kind == 1:  # zero-area points, many coincident
            x = float(rng.randrange(4))
            items.append((oid, Rect(x, x, x, x)))
        else:  # random but on a coarse grid: frequent shared coordinates
            x, y = float(rng.randrange(int(side))), float(rng.randrange(int(side)))
            items.append((oid, Rect(x, y, x + 1.0, y + 1.0)))
    return items


DATASETS = {
    "uniform": uniform_items,
    "clustered": clustered_items,
    "degenerate": degenerate_items,
}


def dataset(kind, n, seed):
    return DATASETS[kind](n, seed)


def query_windows(seed, side=100.0, count=8):
    """A seeded mix of query windows, including the degenerate ones."""
    rng = random.Random(seed)
    windows = [
        Rect(-1e9, -1e9, 1e9, 1e9),  # everything
        Rect(side * 2, side * 2, side * 3, side * 3),  # nothing
        Rect(5.0, 5.0, 5.0, 5.0),  # point window on a popular spot
    ]
    for _ in range(count):
        x, y = rng.uniform(0, side), rng.uniform(0, side)
        w, h = rng.uniform(0, side / 3), rng.uniform(0, side / 3)
        windows.append(Rect(x, y, x + w, y + h))
    return windows


# -- builders ----------------------------------------------------------------


def build_node(items, cap=16):
    """The pointer backend (STR-packed; small capacity = real depth)."""
    return str_bulk_load(list(items), dir_capacity=cap, data_capacity=cap)


def build_flat(items, node_size=8):
    """The packed backend (small node_size = real depth)."""
    return FlatRTree.build(items, node_size=node_size)


def build_both(items, *, cap=16, node_size=8):
    return build_node(items, cap=cap), build_flat(items, node_size=node_size)


# -- brute-force ground truth ------------------------------------------------


def brute_window(items, window):
    return {oid for oid, rect in items if rect.intersects(window)}


def mindist(rect, x, y):
    dx = max(rect.xl - x, x - rect.xu, 0.0)
    dy = max(rect.yl - y, y - rect.yu, 0.0)
    return (dx * dx + dy * dy) ** 0.5


def brute_knn(items, x, y, k):
    """The exact ordered ``(distance, oid)`` answer, ties by oid."""
    return sorted((mindist(rect, x, y), oid) for oid, rect in items)[:k]


def brute_join(items_r, items_s):
    return {
        (oid_r, oid_s)
        for oid_r, rect_r in items_r
        for oid_s, rect_s in items_s
        if rect_r.intersects(rect_s)
    }


# -- parity assertions -------------------------------------------------------


def assert_window_parity(items, node_tree, flat_tree, windows):
    """Both backends return the brute-force entry set for every window."""
    for window in windows:
        expected = brute_window(items, window)
        got_node = {e.oid for e in window_query(node_tree, window)}
        stats = QueryStats()
        got_flat = {e.oid for e in window_query(flat_tree, window, stats=stats)}
        assert got_node == expected, f"node backend wrong for {window}"
        assert got_flat == expected, f"flat backend wrong for {window}"
        if expected:
            assert stats.total_nodes > 0, "flat stats not accounted"


def assert_knn_parity(items, node_tree, flat_tree, points, ks):
    """Both backends return the identical ordered (distance, oid) list."""
    for x, y in points:
        for k in ks:
            expected = brute_knn(items, x, y, k)
            got_node = [
                (d, e.oid) for d, e in nearest_neighbors(node_tree, x, y, k)
            ]
            got_flat = [
                (d, e.oid) for d, e in nearest_neighbors(flat_tree, x, y, k)
            ]
            assert got_node == got_flat, f"backends disagree at ({x},{y}) k={k}"
            assert [oid for _, oid in got_node] == [
                oid for _, oid in expected
            ], f"order differs from brute force at ({x},{y}) k={k}"
            for (gd, _), (ed, _) in zip(got_node, expected):
                assert abs(gd - ed) < 1e-9


def assert_join_parity(items_r, items_s, pairs):
    """A join result equals the brute-force pair set, exactly once each."""
    pairs = list(pairs)
    expected = brute_join(items_r, items_s)
    assert set(pairs) == expected
    assert len(pairs) == len(expected), "duplicate pairs emitted"
