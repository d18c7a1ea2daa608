"""Tests for the z-order curve and the [OM 88] join."""

import hashlib
import random

import numpy as np

import pytest

from repro.datagen import paper_maps
from repro.geometry import Rect
from repro.zorder import (
    Quantizer,
    ZJoinStats,
    ZRegion,
    decompose,
    interleave,
    zorder_join,
)
from repro.zorder.curve import interleave_array

UNIT = Rect(0, 0, 1, 1)


class TestInterleave:
    def test_known_values(self):
        assert interleave(0, 0, 4) == 0
        assert interleave(1, 0, 4) == 0b01
        assert interleave(0, 1, 4) == 0b10
        assert interleave(3, 3, 4) == 0b1111
        assert interleave(0b10, 0b01, 4) == 0b0110

    def test_bijective_on_grid(self):
        bits = 4
        codes = {
            interleave(ix, iy, bits)
            for ix in range(1 << bits)
            for iy in range(1 << bits)
        }
        assert len(codes) == 1 << (2 * bits)
        assert min(codes) == 0
        assert max(codes) == (1 << (2 * bits)) - 1

    def test_locality_of_quadrants(self):
        # All cells of the lower-left quadrant come before any cell of the
        # upper-right quadrant.
        bits = 3
        half = 1 << (bits - 1)
        lower_left = max(
            interleave(ix, iy, bits) for ix in range(half) for iy in range(half)
        )
        upper_right = min(
            interleave(ix, iy, bits)
            for ix in range(half, 2 * half)
            for iy in range(half, 2 * half)
        )
        assert lower_left < upper_right


class TestQuantizer:
    def test_cell_of_corners(self):
        q = Quantizer(UNIT, bits=4)
        assert q.cell_of(0, 0) == (0, 0)
        assert q.cell_of(1, 1) == (15, 15)  # clamped to the last cell

    def test_out_of_bounds_clamped(self):
        q = Quantizer(UNIT, bits=4)
        assert q.cell_of(-5, 2) == (0, 15)

    def test_bits_validated(self):
        with pytest.raises(ValueError):
            Quantizer(UNIT, bits=0)

    @pytest.mark.parametrize("bits", [True, 2.5, 12.0, 29])
    def test_bits_must_be_a_count_of_at_most_28(self, bits):
        with pytest.raises(ValueError, match="bits must be"):
            Quantizer(UNIT, bits=bits)
        with pytest.raises(ValueError, match="bits must be"):
            interleave_array([1], [2], bits)
        with pytest.raises(ValueError, match="bits must be"):
            interleave(1, 2, bits)

    def test_degenerate_bounds(self):
        q = Quantizer(Rect(1, 1, 1, 1), bits=4)
        assert q.cell_of(1, 1) == (0, 0)

    @pytest.mark.parametrize(
        "bounds", [Rect(0, 0, 5e-324, 1), Rect(0, 0, 1e-300, 1), Rect(-3, 2, 7, 2)]
    )
    def test_tiny_extent_gives_no_nan_and_both_paths_agree(self, bounds):
        """A subnormal extent used to scale by ``inf`` (``0 * inf`` = NaN:
        a ValueError here, a cast warning in ``cells_of``); a point far
        outside a tiny extent scales to ``inf``, which is clamped."""
        import warnings

        import numpy as np

        q = Quantizer(bounds, bits=16)
        xs = [bounds.xl, bounds.xu, (bounds.xl + bounds.xu) / 2, -1e10, 1e10]
        ys = [bounds.yl, bounds.yu, (bounds.yl + bounds.yu) / 2, 1e10, -1e10]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ix, iy = q.cells_of(np.array(xs), np.array(ys))
            scalar = [q.cell_of(x, y) for x, y in zip(xs, ys)]
        assert list(zip(ix.tolist(), iy.tolist())) == scalar
        assert all(0 <= c < q.cells for cell in scalar for c in cell)


class TestDecompose:
    def cells_of(self, regions):
        cells = set()
        for region in regions:
            cells.update(range(region.lo, region.hi + 1))
        return cells

    def test_full_space_single_region(self):
        q = Quantizer(UNIT, bits=4)
        regions = decompose(UNIT, q, max_regions=4)
        assert len(regions) == 1
        assert regions[0] == ZRegion(0, (1 << 8) - 1, 0)

    def test_coverage_is_conservative(self):
        q = Quantizer(UNIT, bits=5)
        rect = Rect(0.2, 0.3, 0.55, 0.7)
        regions = decompose(rect, q, max_regions=8)
        covered = self.cells_of(regions)
        ix0, iy0, ix1, iy1 = q.grid_rect(rect)
        for ix in range(ix0, ix1 + 1):
            for iy in range(iy0, iy1 + 1):
                assert interleave(ix, iy, q.bits) in covered

    def test_regions_disjoint_and_sorted(self):
        q = Quantizer(UNIT, bits=6)
        rect = Rect(0.1, 0.1, 0.8, 0.4)
        regions = decompose(rect, q, max_regions=8)
        for a, b in zip(regions, regions[1:]):
            assert a.hi < b.lo

    def test_more_regions_tighter(self):
        q = Quantizer(UNIT, bits=8)
        rect = Rect(0.3, 0.3, 0.35, 0.35)
        loose = self.cells_of(decompose(rect, q, max_regions=1))
        tight = self.cells_of(decompose(rect, q, max_regions=16))
        assert tight <= loose
        assert len(tight) < len(loose)

    def test_max_regions_validated(self):
        q = Quantizer(UNIT, bits=4)
        with pytest.raises(ValueError):
            decompose(UNIT, q, max_regions=0)

    @pytest.mark.parametrize("max_regions", [True, 2.5])
    def test_max_regions_must_be_a_count(self, max_regions):
        with pytest.raises(ValueError, match="max_regions must be an integer"):
            decompose(UNIT, Quantizer(UNIT, bits=4), max_regions=max_regions)

    def test_point_rect(self):
        q = Quantizer(UNIT, bits=6)
        regions = decompose(Rect(0.5, 0.5, 0.5, 0.5), q, max_regions=16)
        assert self.cells_of(regions)  # non-empty cover


class TestZOrderJoin:
    def random_items(self, n, seed, extent=1.0, size=0.05):
        rng = random.Random(seed)
        out = []
        for i in range(n):
            x = rng.uniform(0, extent * 0.95)
            y = rng.uniform(0, extent * 0.95)
            out.append(
                (i, Rect(x, y, x + rng.uniform(0, size), y + rng.uniform(0, size)))
            )
        return out

    def brute(self, items_r, items_s):
        return {
            (i, j)
            for i, r in items_r
            for j, s in items_s
            if r.intersects(s)
        }

    @pytest.mark.parametrize("max_regions", [1, 4, 16])
    def test_matches_brute_force(self, max_regions):
        items_r = self.random_items(150, seed=1)
        items_s = self.random_items(150, seed=2)
        pairs, stats = zorder_join(
            items_r, items_s, UNIT, bits=10, max_regions=max_regions
        )
        assert set(pairs) == self.brute(items_r, items_s)
        assert len(pairs) == len(set(pairs))
        assert stats.candidates == len(pairs)

    def test_matches_rtree_filter(self):
        from repro.join import sequential_join
        from repro.rtree import str_bulk_load

        items_r = self.random_items(300, seed=3)
        items_s = self.random_items(300, seed=4)
        z_pairs, _ = zorder_join(items_r, items_s, UNIT, bits=12)
        tree_r = str_bulk_load(items_r, dir_capacity=10, data_capacity=10)
        tree_s = str_bulk_load(items_s, dir_capacity=10, data_capacity=10)
        assert set(z_pairs) == sequential_join(tree_r, tree_s).pair_set()

    def test_more_regions_fewer_false_hits(self):
        items_r = self.random_items(200, seed=5)
        items_s = self.random_items(200, seed=6)
        _, loose = zorder_join(items_r, items_s, UNIT, bits=12, max_regions=1)
        _, tight = zorder_join(items_r, items_s, UNIT, bits=12, max_regions=16)
        assert tight.z_false_hits <= loose.z_false_hits
        assert tight.entries_r >= loose.entries_r  # the trade-off

    @pytest.mark.parametrize(
        "settings", [{"bits": True}, {"bits": 2.5}, {"max_regions": True}, {"max_regions": 2.5}]
    )
    def test_a_bool_or_a_fraction_is_not_a_count(self, settings):
        items = self.random_items(5, seed=7)
        with pytest.raises(ValueError, match="must be an integer"):
            zorder_join(items, items, UNIT, **settings)

    def test_empty_inputs(self):
        pairs, stats = zorder_join([], [], UNIT)
        assert pairs == []
        assert stats.candidates == 0

    @pytest.mark.parametrize("max_regions", [0, True, 2.5, -1])
    def test_max_regions_is_checked_even_with_no_object(self, max_regions):
        with pytest.raises(ValueError, match="max_regions must be an integer"):
            zorder_join([], [], UNIT, max_regions=max_regions)


#: The z-order join of the paper maps at scale 0.05, seed 42, with the
#: bench's 14 bits: every counter, and a sha-256 over the candidate pairs,
#: in the order the join emits them, as ``int64`` bytes.  Both rows find
#: the R*-tree's 5,058 candidates.
PAPER_MAPS_PIN = {
    1: (
        ZJoinStats(entries_r=6572, entries_s=6366, interval_tests=792404,
                   interval_matches=792404, duplicates=0, z_false_hits=787346),
        "ca68f60011984ab26b54b16c1ca95fb31336734720311a09e5176baeb6d46471",
    ),
    4: (
        ZJoinStats(entries_r=9163, entries_s=9387, interval_tests=627755,
                   interval_matches=627755, duplicates=172374, z_false_hits=450323),
        "5f9f46840f956884216f9f723610aed5763d8d530f84a745f0f4968a732e12d1",
    ),
}


@pytest.fixture(scope="module")
def paper_items():
    m1, m2 = paper_maps(scale=0.05, seed=42)
    return m1.items(), m2.items(), m1.region.bounds


def pairs_digest(pairs) -> str:
    return hashlib.sha256(np.array(pairs, dtype=np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("max_regions", sorted(PAPER_MAPS_PIN))
def test_paper_maps_pin(paper_items, max_regions):
    items_r, items_s, bounds = paper_items
    pairs, stats = zorder_join(items_r, items_s, bounds, bits=14, max_regions=max_regions)
    expected_stats, expected_digest = PAPER_MAPS_PIN[max_regions]
    assert stats == expected_stats
    assert stats.candidates == len(pairs) == 5058
    assert pairs_digest(pairs) == expected_digest
