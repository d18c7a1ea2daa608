"""Regression: k-NN ties at exactly equal distance are deterministic.

The original best-first search broke distance ties by heap insertion
order, so the entry filling the last result slot depended on tree shape
and insertion history — two trees over the same data could answer the
same query differently.  Ties now go to the smaller oid (an ``int64``);
these tests pin the ordering on both backends and across insertion
orders.
"""

import random

import pytest

from repro.geometry.rect import Rect
from repro.rtree import RStarTree
from repro.rtree.flat import FlatRTree
from repro.rtree.query import nearest_neighbors

#: Eight coincident points — every pair ties at every query point — plus
#: four distinct ones at a strictly greater distance.
TIED = [(oid, Rect(5.0, 5.0, 5.0, 5.0)) for oid in range(8)]
FAR = [(10 + i, Rect(20.0 + i, 20.0, 21.0 + i, 21.0)) for i in range(4)]


def node_tree(items):
    tree = RStarTree(dir_capacity=4, data_capacity=4)
    for oid, rect in items:
        tree.insert(oid, rect)
    return tree


class TestTieOrdering:
    def test_tied_entries_come_out_in_oid_order(self):
        tree = node_tree(TIED + FAR)
        for k in (1, 3, 8, 12):
            got = [e.oid for _, e in nearest_neighbors(tree, 5.0, 5.0, k)]
            assert got == list(range(min(k, 8))) + [
                10 + i for i in range(max(0, k - 8))
            ]

    def test_order_is_insertion_order_independent(self):
        rng = random.Random(99)
        shuffled = TIED + FAR
        baseline = None
        for _ in range(5):
            rng.shuffle(shuffled)
            tree = node_tree(shuffled)
            got = [e.oid for _, e in nearest_neighbors(tree, 5.0, 5.0, 6)]
            if baseline is None:
                baseline = got
            assert got == baseline

    def test_flat_backend_matches_node_backend_on_ties(self):
        items = TIED + FAR
        flat = FlatRTree.build(items, node_size=4)
        tree = node_tree(items)
        for k in (1, 5, 8, 12):
            got_node = [
                (d, e.oid) for d, e in nearest_neighbors(tree, 5.0, 5.0, k)
            ]
            got_flat = [
                (d, e.oid) for d, e in nearest_neighbors(flat, 5.0, 5.0, k)
            ]
            assert got_node == got_flat
