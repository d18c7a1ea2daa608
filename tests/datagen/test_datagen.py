"""Tests for the synthetic TIGER-like map generators."""

import hashlib
from operator import itemgetter

import numpy as np
import pytest

from repro.datagen import (
    MAP1_COUNT,
    MAP2_COUNT,
    MapData,
    Region,
    build_tree,
    generate_boundaries,
    generate_streets,
    paper_maps,
)
from repro.geometry import Rect, sweep_rows
from repro.rtree import tree_stats


class TestRegion:
    def test_scale_controls_side(self):
        assert Region(scale=1.0).side == pytest.approx(1.0)
        assert Region(scale=0.25).side == pytest.approx(0.5)

    def test_scale_positive(self):
        with pytest.raises(ValueError):
            Region(scale=0)

    def test_deterministic(self):
        a = Region(scale=0.5, seed=7)
        b = Region(scale=0.5, seed=7)
        assert a.cities == b.cities
        assert a.city_weights == b.city_weights

    def test_city_weights_normalised(self):
        region = Region(scale=1.0)
        assert sum(region.city_weights) == pytest.approx(1.0)
        assert all(w > 0 for w in region.city_weights)

    def test_settlement_points_inside_region(self):
        import random

        region = Region(scale=0.3, seed=3)
        rng = random.Random(0)
        for _ in range(200):
            x, y = region.sample_settlement_point(rng)
            assert region.bounds.contains_point(x, y)

    def test_pick_city_respects_weights(self):
        import random

        region = Region(scale=1.0, seed=5)
        rng = random.Random(1)
        counts = [0] * len(region.cities)
        for _ in range(3000):
            counts[region.pick_city(rng)] += 1
        heaviest = max(range(len(counts)), key=lambda i: region.city_weights[i])
        assert counts[heaviest] == max(counts)


class TestGenerators:
    """A generator returns ``(table, chains)``: the boxes as one BoxTable
    and the point chains in row order, or None without geometry."""

    def test_street_count_and_ids(self):
        region = Region(scale=0.05, seed=1)
        streets, _ = generate_streets(region, 500, seed=2)
        assert len(streets) == 500
        assert streets.oids.tolist() == list(range(500))

    def test_streets_inside_region(self):
        region = Region(scale=0.05, seed=1)
        for _, mbr in generate_streets(region, 300, seed=2)[0].items():
            assert region.bounds.contains(mbr)

    def test_streets_deterministic(self):
        region = Region(scale=0.05, seed=1)
        a, _ = generate_streets(region, 100, seed=2)
        b, _ = generate_streets(region, 100, seed=2)
        assert a.items() == b.items()

    def test_streets_are_small(self):
        region = Region(scale=0.05, seed=1)
        streets, _ = generate_streets(region, 300, seed=2)
        mean_extent = sum(r.width() + r.height() for _, r in streets.items()) / 300
        assert mean_extent < 0.01 * region.side

    def test_geometry_optional(self):
        region = Region(scale=0.05, seed=1)
        bare, no_chains = generate_streets(region, 10, seed=2)
        rich, chains = generate_streets(region, 10, seed=2, include_geometry=True)
        assert no_chains is None
        assert len(chains) == 10 and all(len(points) >= 2 for points in chains)
        # Geometry must stay inside the stated MBR.
        for (_, mbr), points in zip(rich.items(), chains):
            assert mbr == Rect.from_points(points)
        assert bare.items() == rich.items()

    def test_boundaries_count_and_region(self):
        region = Region(scale=0.05, seed=1)
        objs, _ = generate_boundaries(region, 400, seed=3)
        assert len(objs) == 400
        for _, mbr in objs.items():
            assert region.bounds.contains(mbr)

    def test_boundaries_mix_validated(self):
        region = Region(scale=0.05, seed=1)
        with pytest.raises(ValueError):
            generate_boundaries(region, 10, seed=3, mix=(0.5, 0.2, 0.2))

    def test_boundaries_include_long_and_short_features(self):
        region = Region(scale=0.2, seed=1)
        objs, _ = generate_boundaries(region, 2000, seed=3)
        extents = sorted(max(r.width(), r.height()) for _, r in objs.items())
        assert extents[0] < extents[-1]  # heterogeneous feature sizes


def table_digest(table) -> str:
    """sha-256 over the ``xl|yl|xu|yu`` bytes + ``repr(oids)``."""
    digest = hashlib.sha256()
    for name in ("xl", "yl", "xu", "yu"):
        digest.update(getattr(table, name).tobytes())
    digest.update(repr(table.oids.tolist()).encode())
    return digest.hexdigest()


#: Recorded at the commit before the generators wrote columns (PR 16's
#: object-building loops).  The ``random.Random`` draw stream is the data
#: set: every pinned counter and EXPERIMENTS.md row depends on it.  The
#: three points cover the default seed, another seed, and a scale whose
#: river/railway walk length ``max(8, round(40 * sqrt(scale)))`` is not 8.
GOLDEN = {
    (0.02, 42): (
        "48ce83caaee0d0bece3ee41116e9fec64eb81e5a536aa1d06bdaf05d3399e6a4",
        "293f6d50423c059a4a239328ce794d61eb290c1030c90679f29e578edad4ad01",
    ),
    (0.013, 7): (
        "1642b708567f4a5e7a1a242e90ba998ab2db0918812a8d9b78f7bcd8034f32ea",
        "9902eaf8adde07fb5d8ac51142465f51b1b980b8ace4915640e4db50e96de871",
    ),
    (0.09, 3): (
        "9df727efbf2159c38071487e25fd6ce021f20faaad219f4fb74fb1da2d63c2c6",
        "81def5abf3015587a01975b06e418f42ed494746f9efd2e8350a8e9636fd6807",
    ),
}

#: The full-scale data set at the default seed, recorded on the commit before
#: the loops spelled ``random.py``'s wrappers inline (PR 23): the one every
#: exact counter of ``perf`` and EXPERIMENTS.md rests on (``join.pairs``
#: 147,862; ``rtree.{node,flat}.window_nodes`` 36.1 / 54.9).
FULL_SCALE = (
    "bf014d8f40a969977d0443f0c9d8ae949895766e0fc4f2240bbe1ead58876533",
    "2a383582887c9322fc60e338347340fa26e97085ca866d5c50e9bb9d5b689102",
)


class TestDrawStream:
    @pytest.mark.parametrize("scale, seed", sorted(GOLDEN))
    def test_golden_digest(self, scale, seed):
        maps = paper_maps(scale=scale, seed=seed)
        assert tuple(table_digest(m.table()) for m in maps) == GOLDEN[scale, seed]

    def test_the_full_scale_data_set(self):
        maps = paper_maps(scale=1.0, seed=42)
        assert [len(m) for m in maps] == [MAP1_COUNT, MAP2_COUNT]
        assert tuple(table_digest(m.table()) for m in maps) == FULL_SCALE

    @pytest.mark.parametrize("scale, seed", sorted(GOLDEN))
    def test_keeping_the_geometry_perturbs_no_draw(self, scale, seed):
        bare = paper_maps(scale=scale, seed=seed)
        rich = paper_maps(scale=scale, seed=seed, include_geometry=True)
        for plain, with_points in zip(bare, rich):
            assert table_digest(with_points.table()) == table_digest(plain.table())
            assert all(o.points is None for o in plain.objects)
            # every row is the MBR of its own chain, bit for bit
            table = with_points.table()
            mbrs = [Rect.from_points(o.points) for o in with_points.objects]
            for name in ("xl", "yl", "xu", "yu"):
                column = np.array([getattr(r, name) for r in mbrs])
                assert column.tobytes() == getattr(table, name).tobytes(), name


class TestPaperMaps:
    def test_counts_scale(self):
        m1, m2 = paper_maps(scale=0.01)
        assert len(m1) == round(MAP1_COUNT * 0.01)
        assert len(m2) == round(MAP2_COUNT * 0.01)

    def test_shared_region(self):
        m1, m2 = paper_maps(scale=0.01)
        assert m1.region is m2.region

    def test_deterministic(self):
        a1, a2 = paper_maps(scale=0.01, seed=9)
        b1, b2 = paper_maps(scale=0.01, seed=9)
        assert [o.mbr for o in a1.objects] == [o.mbr for o in b1.objects]
        assert [o.mbr for o in a2.objects] == [o.mbr for o in b2.objects]

    def test_different_seeds_differ(self):
        a1, _ = paper_maps(scale=0.01, seed=9)
        b1, _ = paper_maps(scale=0.01, seed=10)
        assert [o.mbr for o in a1.objects] != [o.mbr for o in b1.objects]

    def test_items_format(self):
        m1, _ = paper_maps(scale=0.005)
        items = m1.items()
        assert len(items) == len(m1)
        oid, rect = items[0]
        assert isinstance(oid, int)
        assert rect == m1.objects[0].mbr


class TestBuildTree:
    def test_tree_holds_all_objects(self):
        m1, _ = paper_maps(scale=0.02)
        tree = build_tree(m1)
        assert len(tree) == len(m1)
        tree.validate()

    def test_medium_scale_shape_is_paper_like(self):
        # At 1/4 scale the trees already have the paper's height of 3 and
        # a healthy number of intersecting root pairs (m scales with the
        # root fan-out, not with the object count).
        m1, m2 = paper_maps(scale=0.25)
        t1, t2 = build_tree(m1), build_tree(m2)
        assert t1.height == 3
        assert t2.height == 3
        s1 = tree_stats(t1)
        assert 0.6 <= s1.avg_leaf_fill <= 0.85
        rows_1, rows_2 = (sorted(t.root.rows(), key=itemgetter(0)) for t in (t1, t2))
        m = len(sweep_rows(rows_1, rows_2)[0])
        assert 40 <= m <= 1200
