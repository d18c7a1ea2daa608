"""Differential parity: the sharded kernels vs the single-tree oracles.

The acceptance bar of the sharded tier: for K ∈ {1, 4, 8} and both
partitioning modes, every routed-and-merged answer over the packed shard
trees is *exactly* the unsharded node-tree answer — window oid sets, kNN
results including tie order, and join pair sets with zero duplicates.
"""

import random

import pytest

from repro.geometry.rect import Rect
from repro.join.sequential import sequential_join
from repro.rtree.bulk import str_bulk_load
from repro.rtree.query import nearest_neighbors, window_query
from repro.shard.ops import (
    shard_join_pairs,
    sharded_join,
    sharded_knn,
    sharded_window,
)
from repro.shard.partition import build_sharded


def make_items(n, seed, side=100.0):
    rng = random.Random(seed)
    items = []
    for oid in range(n):
        x, y = rng.uniform(0, side), rng.uniform(0, side)
        items.append(
            (oid, Rect(x, y, x + rng.uniform(0.2, 4.0),
                       y + rng.uniform(0.2, 4.0)))
        )
    return items


DATASETS = {"r": make_items(350, 1), "s": make_items(250, 2)}
ORACLE_R = str_bulk_load(DATASETS["r"])
ORACLE_S = str_bulk_load(DATASETS["s"])

RNG = random.Random(42)
WINDOWS = []
for _ in range(25):
    x, y = RNG.uniform(-5, 95), RNG.uniform(-5, 95)
    WINDOWS.append(Rect(x, y, x + RNG.uniform(0.5, 25), y + RNG.uniform(0.5, 25)))
POINTS = [
    (RNG.uniform(-10, 110), RNG.uniform(-10, 110), RNG.choice([1, 3, 7, 20]))
    for _ in range(25)
]

GRID = [(k, mode) for k in (1, 4, 8) for mode in ("grid", "zrange")]


# Each id names the packed index the shards serve.
@pytest.fixture(scope="module", params=GRID, ids=lambda p: f"K{p[0]}-{p[1]}-flat")
def sharded(request):
    k, mode = request.param
    return build_sharded(DATASETS, k, mode=mode)


class TestWindowParity:
    def test_exact_oid_sets(self, sharded):
        for window in WINDOWS:
            want = tuple(sorted(e.oid for e in window_query(ORACLE_R, window)))
            got = sharded_window(sharded, "r", window)
            assert got == want, window


class TestKNNParity:
    def test_exact_results_including_tie_order(self, sharded):
        for x, y, k in POINTS:
            found = nearest_neighbors(ORACLE_R, x, y, k=k)
            want = tuple((float(d), e.oid) for d, e in found)
            got = sharded_knn(sharded, "r", x, y, k)
            assert got == want, (x, y, k)

    def test_pruned_shards_never_needed(self, sharded):
        # re-running WITHOUT pruning (query every shard) must not change
        # any answer: pruning only skips shards that cannot contribute
        for x, y, k in POINTS:
            skipped = []
            got = sharded_knn(sharded, "r", x, y, k, skipped=skipped)
            for shard, bound, kth in skipped:
                assert bound > kth  # strict: ties are never pruned
            assert got == sharded_knn(sharded, "r", x, y, k)


class TestJoinParity:
    def test_full_join_exact_with_zero_duplicates(self, sharded):
        want = tuple(sorted(sequential_join(ORACLE_R, ORACLE_S).pairs))
        per_shard = [
            shard_join_pairs(
                sharded.trees[shard]["r"], sharded.trees[shard]["s"],
                sharded.pmap, shard,
            )
            for shard in range(sharded.shards)
        ]
        flat = [p for pairs in per_shard for p in pairs]
        assert len(flat) == len(set(flat)), "duplicate pairs across shards"
        assert tuple(sorted(flat)) == want
        assert sharded_join(sharded, "r", "s") == want

    def test_windowed_join_exact(self, sharded):
        window = Rect(20, 20, 70, 70)
        keep_r = {e.oid for e in window_query(ORACLE_R, window)}
        keep_s = {e.oid for e in window_query(ORACLE_S, window)}
        want = tuple(sorted(
            (r, s)
            for r, s in sequential_join(ORACLE_R, ORACLE_S).pairs
            if r in keep_r and s in keep_s
        ))
        assert sharded_join(sharded, "r", "s", window=window) == want
