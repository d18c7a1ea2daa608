"""Partitioner mechanics: grids, Morton cuts, ownership, replication."""

import math
import random

import numpy as np
import pytest

from repro.geometry import BoxTable, Rect
from repro.join import multiprocessing_join, sequential_join
from repro.rtree import FlatRTree, RStarTree
from repro.shard.ops import shard_join_pairs, sharded_join
from repro.shard.partition import (
    PartitionMap,
    Partitioner,
    build_sharded,
    partition_items,
    partition_rows,
)


def make_items(n, seed, side=100.0, max_extent=4.0):
    rng = random.Random(seed)
    items = []
    for oid in range(n):
        x = rng.uniform(0.0, side)
        y = rng.uniform(0.0, side)
        items.append(
            (oid, Rect(x, y, x + rng.uniform(0.1, max_extent),
                       y + rng.uniform(0.1, max_extent)))
        )
    return items


class TestGridMode:
    def test_one_cell_per_shard_near_square(self):
        pmap = Partitioner(6, mode="grid").fit(make_items(50, 0))
        assert pmap.gx * pmap.gy == 6
        assert {pmap.gx, pmap.gy} == {2, 3}
        assert sorted(set(pmap.owner)) == list(range(6))

    def test_grid_orients_to_region_aspect(self):
        wide = [(0, Rect(0, 0, 100, 10)), (1, Rect(90, 5, 100, 10))]
        pmap = Partitioner(6, mode="grid").fit(wide)
        assert pmap.gx > pmap.gy  # more columns along the long axis

    def test_single_shard_is_one_cell(self):
        pmap = Partitioner(1, mode="grid").fit(make_items(10, 1))
        assert (pmap.gx, pmap.gy) == (1, 1)
        assert set(pmap.shards_of_rect(Rect(-5, -5, 200, 200))) == {0}


class TestOwnership:
    @pytest.mark.parametrize("mode", ["grid", "zrange"])
    def test_every_object_owned_exactly_once(self, mode):
        items = make_items(300, 2)
        pmap = Partitioner(5, mode=mode).fit(items)
        owned, _ = partition_items(items, pmap)
        seen = [oid for per_shard in owned for oid, _ in per_shard]
        assert sorted(seen) == sorted(oid for oid, _ in items)

    @pytest.mark.parametrize("mode", ["grid", "zrange"])
    def test_every_point_owned_by_a_valid_shard(self, mode):
        pmap = Partitioner(7, mode=mode).fit(make_items(200, 3))
        rng = random.Random(4)
        for _ in range(500):
            x = rng.uniform(-20, 120)  # clamping covers out-of-range too
            y = rng.uniform(-20, 120)
            assert 0 <= pmap.owner_of_point(x, y) < 7

    @pytest.mark.parametrize("mode", ["grid", "zrange"])
    def test_cells_tile_the_bounds(self, mode):
        pmap = Partitioner(4, mode=mode).fit(make_items(100, 5))
        bounds = pmap.bounds()
        area = sum(
            pmap.cell_rect(cell).area()
            for cell in range(pmap.gx * pmap.gy)
        )
        assert area == pytest.approx(bounds.area(), rel=1e-9)
        # cell_of_point agrees with the cell rect containing the point
        rng = random.Random(6)
        for _ in range(200):
            x = rng.uniform(bounds.xl, bounds.xu)
            y = rng.uniform(bounds.yl, bounds.yu)
            cell = pmap.cell_rect(pmap.cell_of_point(x, y))
            assert cell.xl <= x <= cell.xu and cell.yl <= y <= cell.yu


class TestReplication:
    @pytest.mark.parametrize("mode", ["grid", "zrange"])
    def test_replicated_to_every_overlapping_shard(self, mode):
        items = make_items(150, 7)
        pmap = Partitioner(4, mode=mode).fit(items)
        _, replicated = partition_items(items, pmap)
        stored = {
            shard: {oid for oid, _ in per_shard}
            for shard, per_shard in enumerate(replicated)
        }
        for oid, rect in items:
            overlapping = set(pmap.shards_of_rect(rect))
            for shard in overlapping:
                assert oid in stored[shard], (oid, shard)
        # and nowhere else
        for shard, oids in stored.items():
            region = pmap.shard_region(shard)
            for oid in oids:
                rect = dict(items)[oid]
                assert any(
                    rect.intersects(pmap.cell_rect(cell))
                    for cell in pmap.shard_cells(shard)
                ), (oid, shard, region)


class TestZrangeBalance:
    def test_every_shard_gets_cells_and_counts_balance(self):
        items = make_items(800, 8, max_extent=1.0)
        pmap = Partitioner(6, mode="zrange").fit(items)
        per_shard_cells = [len(pmap.shard_cells(s)) for s in range(6)]
        assert all(c >= 1 for c in per_shard_cells)
        owned, _ = partition_items(items, pmap)
        counts = [len(per) for per in owned]
        assert sum(counts) == len(items)
        # uniform data: greedy equal-count cuts keep shards within 2x
        assert max(counts) <= 2 * max(1, min(counts))

    def test_skewed_data_still_covers_every_shard(self):
        rng = random.Random(9)
        # 90% of objects in one corner cell's worth of space
        items = []
        for oid in range(300):
            if oid % 10:
                x, y = rng.uniform(0, 5), rng.uniform(0, 5)
            else:
                x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            items.append((oid, Rect(x, y, x + 0.5, y + 0.5)))
        pmap = Partitioner(5, mode="zrange").fit(items)
        owned, _ = partition_items(items, pmap)
        assert sum(len(per) for per in owned) == 300
        assert all(len(pmap.shard_cells(s)) >= 1 for s in range(5))


class TestDegenerate:
    @pytest.mark.parametrize("mode", ["grid", "zrange"])
    def test_single_point_dataset(self, mode):
        items = [(0, Rect(5.0, 5.0, 5.0, 5.0))]
        pmap = Partitioner(3, mode=mode).fit(items)
        owned, replicated = partition_items(items, pmap)
        assert sum(len(per) for per in owned) == 1
        assert sum(len(per) for per in replicated) >= 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Partitioner(0)
        with pytest.raises(ValueError):
            Partitioner(2, mode="hash")
        with pytest.raises(ValueError):
            Partitioner(2, mode="grid").fit([])


class TestBuildSharded:
    @pytest.mark.parametrize("backend", ["node", "flat"])
    def test_trees_match_replicated_counts(self, backend):
        datasets = {"a": make_items(120, 10), "b": make_items(80, 11)}
        sharded = build_sharded(datasets, 4, backend=backend)
        assert sharded.shards == 4
        for shard in range(4):
            for name in ("a", "b"):
                tree = sharded.trees[shard][name]
                count = sharded.counts[shard][name]
                assert tree.size == count
                mbr = sharded.content_mbrs[shard][name]
                assert (mbr is None) == (count == 0)

    def test_one_map_fits_all_datasets(self):
        left = [(i, Rect(i, 0, i + 1, 1)) for i in range(10)]
        right = [(i, Rect(i + 50, 50, i + 51, 51)) for i in range(10)]
        sharded = build_sharded({"l": left, "r": right}, 4)
        # the map covers both datasets' extents
        bounds = sharded.pmap.bounds()
        assert bounds.xl <= 0 and bounds.xu >= 60
        assert bounds.yl <= 0 and bounds.yu >= 51

    def test_tables_and_items_build_the_same_shards(self):
        datasets = {"a": make_items(120, 10), "b": make_items(80, 11)}
        tables = {name: BoxTable.from_items(items) for name, items in datasets.items()}
        from_items = build_sharded(datasets, 4, mode="zrange", backend="flat")
        from_tables = build_sharded(tables, 4, mode="zrange", backend="flat")
        assert from_tables.pmap == from_items.pmap
        assert from_tables.counts == from_items.counts
        assert from_tables.content_mbrs == from_items.content_mbrs
        for shard in range(4):
            for name in datasets:
                ours = from_tables.trees[shard][name]
                theirs = from_items.trees[shard][name]
                assert np.array_equal(ours.rows, theirs.rows)
                assert np.array_equal(ours.xmin, theirs.xmin)  # directory
                assert ours.table is tables[name]  # indexed in place
                assert np.array_equal(
                    ours.table.oids[ours.rows], theirs.table.oids[theirs.rows]
                )

    @pytest.mark.parametrize("mode", ["grid", "zrange"])
    def test_shard_trees_hold_exactly_the_replicated_rows(self, mode):
        items = make_items(150, 12)
        sharded = build_sharded({"a": items}, 5, mode=mode, backend="flat")
        _, replicated = partition_items(items, sharded.pmap)
        _, replicated_rows = partition_rows(BoxTable.from_items(items), sharded.pmap)
        for shard, per_shard in enumerate(replicated):
            tree = sharded.trees[shard]["a"]
            tree.validate()
            # the tree indexes exactly the shard's rows of the one table
            assert sorted(tree.rows) == replicated_rows[shard].tolist()
            assert sorted(tree.table.oids[tree.rows]) == [oid for oid, _ in per_shard]
            mbr = sharded.content_mbrs[shard]["a"]
            assert mbr == (
                Rect.union_all(rect for _, rect in per_shard) if per_shard else None
            )

    @pytest.mark.parametrize("backend", ["node", "flat"])
    def test_bad_box_is_rejected_at_ingest(self, backend):
        items = make_items(30, 13) + [(99, Rect(1.0, 1.0, math.nan, 2.0))]
        with pytest.raises(ValueError, match="object 99 "):
            build_sharded({"a": make_items(10, 14), "b": items}, 3, backend=backend)
        with pytest.raises(ValueError, match="object 99 "):
            Partitioner(3).fit(items)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            build_sharded({"a": make_items(5, 15)}, 2, backend="packed")

    @pytest.mark.parametrize("shards", [True, 2.0, 2.5])
    def test_a_bool_or_a_fraction_is_not_a_shard_count(self, shards):
        with pytest.raises(ValueError, match="shards must be an integer"):
            Partitioner(shards)
        with pytest.raises(ValueError, match="shards must be an integer"):
            build_sharded({"a": make_items(5, 15)}, shards)


class TestEmptyShards:
    """An empty shard holds an empty tree of the *requested* backend, so
    no join on it is a mixed pair."""

    @pytest.mark.parametrize(
        "backend, kind", [("flat", FlatRTree), ("node", RStarTree)]
    )
    def test_every_shard_tree_is_of_the_requested_backend(self, backend, kind):
        datasets = {"a": make_items(100, 16), "b": [(1000, Rect(1, 1, 2, 2))]}
        sharded = build_sharded(datasets, 4, backend=backend)
        assert sum(1 for c in sharded.counts if c["b"] == 0) == 3
        for trees in sharded.trees:
            assert all(type(tree) is kind for tree in trees.values())

    def test_sharded_flat_join_never_builds_a_node_tree(self):
        datasets = {"a": make_items(100, 16), "b": [(1000, Rect(1, 1, 2, 2))]}
        sharded = build_sharded(datasets, 4, backend="flat")
        whole_a = FlatRTree.build(datasets["a"])
        whole_b = FlatRTree.build(datasets["b"])
        expected = tuple(sorted(sequential_join(whole_a, whole_b).pairs))
        assert sharded_join(sharded, "a", "b") == expected
        merged = []
        for shard, trees in enumerate(sharded.trees):
            # the join entry points themselves, on the empty shards too
            merged += shard_join_pairs(trees["a"], trees["b"], sharded.pmap, shard)
            assert sorted(multiprocessing_join(trees["a"], trees["b"], 2)) == sorted(
                sequential_join(trees["a"], trees["b"]).pairs
            )
        assert tuple(sorted(merged)) == expected


def test_build_sharded_makes_no_per_object_rect(monkeypatch):
    """The guard against the per-object path coming back: sharding two
    5,000-row tables constructs O(shards x trees) Rects, not O(rows)."""
    shards = 4
    datasets = {
        "a": BoxTable.from_items(make_items(5000, 17)),
        "b": BoxTable.from_items(make_items(5000, 18)),
    }
    made = []
    init = Rect.__init__

    def counting(self, *args):
        made.append(1)
        init(self, *args)

    monkeypatch.setattr(Rect, "__init__", counting)
    sharded = build_sharded(datasets, shards, mode="zrange", backend="flat")
    assert sum(c["a"] + c["b"] for c in sharded.counts) >= 10000
    assert len(made) <= 4 * shards * len(datasets)
