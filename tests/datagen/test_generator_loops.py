"""The ``Region`` methods stay the statement of the sampling rule.  The
references below are written from those methods and ``Rect.from_points``, a
scalar loop an object — the generators, which read the same draws off the
word stream and compute the floats in numpy, must produce their rows and
chains to the bit, on more than the three points the golden digests pin.
The references keep calling ``rng.uniform`` / ``gauss`` / ``randint`` /
``choice``: should a future CPython change a wrapper, they are the alarm.
The generators call none of them, nor anything interpreted a row — counted
below."""

import math
import random

import numpy as np
import pytest

from repro.bench.counts import count_work
from repro.datagen import Region, generate_boundaries, generate_streets
from repro.datagen.boundaries import RAIL_STEP, RIVER_STEP
from repro.datagen.streets import STEP_LENGTH
from repro.geometry import Rect

COUNT = 3000
GRID_ANGLES = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)


def reference_streets(region, count, seed):
    rng = random.Random(seed)
    chains = []
    for _ in range(count):
        x, y = region.sample_settlement_point(rng)
        if rng.random() < 0.85:
            angle = rng.choice(GRID_ANGLES) + rng.gauss(0.0, 0.06)
        else:
            angle = rng.uniform(0.0, 2.0 * math.pi)
        points = [(x, y)]
        for _ in range(rng.randint(1, 3)):
            length = rng.uniform(0.5, 1.5) * STEP_LENGTH
            angle += rng.gauss(0.0, 0.15)
            x, y = region.clamp(x + length * math.cos(angle), y + length * math.sin(angle))
            points.append((x, y))
        chains.append(tuple(points))
    return chains


def reference_boundaries(region, count, seed, mix=(0.60, 0.25, 0.15)):
    rng = random.Random(seed)
    boundaries = min(count, round(count * mix[0]))
    rivers = min(count, boundaries + round(count * mix[1]))
    chains = []
    while len(chains) < boundaries:
        cx, cy = region.sample_settlement_point(rng, rural_fraction=0.25)
        w = rng.uniform(0.0006, 0.002)
        h = rng.uniform(0.0006, 0.002)
        x0, y0 = region.clamp(cx - w / 2.0, cy - h / 2.0)
        x1, y1 = region.clamp(cx + w / 2.0, cy + h / 2.0)
        ring = ((x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0))
        for edge in range(min(4, boundaries - len(chains))):
            chains.append(ring[edge : edge + 2])
    segments_per_walk = max(8, round(40 * math.sqrt(region.scale)))
    for until, step, curviness in ((rivers, RIVER_STEP, 0.5), (count, RAIL_STEP, 0.08)):
        while len(chains) < until:
            x, y = rng.uniform(0, region.side), rng.uniform(0, region.side)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            for _ in range(min(segments_per_walk, until - len(chains))):
                points = [(x, y)]
                for _ in range(rng.randint(2, 4)):
                    angle += rng.gauss(0.0, curviness)
                    x, y = region.clamp(
                        x + step * math.cos(angle), y + step * math.sin(angle)
                    )
                    points.append((x, y))
                chains.append(tuple(points))
    return chains


def assert_rows_are_the_chains_mbrs(table, chains):
    assert table.oids.tolist() == list(range(len(chains)))
    mbrs = [Rect.from_points(points) for points in chains]
    for name in ("xl", "yl", "xu", "yu"):
        column = np.array([getattr(mbr, name) for mbr in mbrs])
        assert column.tobytes() == getattr(table, name).tobytes(), name


@pytest.mark.parametrize("scale, seed", [(0.02, 11), (0.09, 5), (0.0004, 2)])
class TestLoopsEqualTheRegionMethods:
    # side 0.02 at scale 0.0004: steps leave the region, so every clamp
    # branch — and every equal-extremes tie at a border — is taken

    def test_streets(self, scale, seed):
        region = Region(scale=scale, seed=seed)
        reference = reference_streets(region, COUNT, seed + 1)
        for include_geometry in (False, True):
            table, chains = generate_streets(region, COUNT, seed + 1, include_geometry)
            assert_rows_are_the_chains_mbrs(table, reference)
            assert chains == (reference if include_geometry else None)

    @pytest.mark.parametrize("mix", [(0.60, 0.25, 0.15), (0.1, 0.2, 0.7)])
    def test_boundaries(self, scale, seed, mix):
        region = Region(scale=scale, seed=seed)
        count = COUNT + 1  # the last ring and the last walks are cut short
        reference = reference_boundaries(region, count, seed + 2, mix)
        for include_geometry in (False, True):
            table, chains = generate_boundaries(
                region, count, seed + 2, include_geometry, mix
            )
            assert_rows_are_the_chains_mbrs(table, reference)
            assert chains == (reference if include_geometry else None)


def test_the_clamp_branches_are_reached():
    region = Region(scale=0.0004, seed=2)
    table, _ = generate_streets(region, COUNT, 3)
    assert (table.xl == 0.0).any() and (table.xu == region.side).any()
    assert (table.yl == 0.0).any() and (table.yu == region.side).any()


@pytest.mark.parametrize("include_geometry", [False, True])
@pytest.mark.parametrize("generate, seed", [(generate_streets, 12), (generate_boundaries, 13)])
def test_a_row_costs_no_interpreted_call(generate, seed, include_geometry):
    """The interpreter-work guard: generating 2,000 rows enters no frame of
    ``random.py`` once ``Random(seed)`` is built (11.7 a street, 3.1 a map-2
    feature before the wrappers were spelled inline), and no Python function
    once a row or once a step: every frame is entered fewer than 100 times
    (the ``gauss`` closure, once a row, went with the word stream)."""
    region = Region(scale=0.02, seed=11)
    _, work = count_work(generate, region, 2000, seed, include_geometry)
    entered = work.frames
    wrappers = {
        key: calls
        for key, calls in entered.items()
        if key[0] == random.__file__ and key[1] not in ("__init__", "seed")
    }
    assert wrappers == {}
    per_row = {key: calls for key, calls in entered.items() if calls >= 100}
    assert per_row == {}
