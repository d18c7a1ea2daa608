"""Synthetic street segments — the stand-in for the paper's *map 1*.

TIGER street records are short polylines following a mostly rectilinear
street grid.  Each generated street starts at a settlement point, picks a
grid direction (axis-parallel with jitter, occasionally diagonal) and walks
one to three short steps.  Streets therefore produce small, thin, heavily
clustered MBRs — the MBR population whose skew drives the paper's task
imbalance.

The generator writes columns — four doubles a street into a
:class:`BoxColumns`, no per-street object — and its loop calls nothing of
its own: the :class:`Region` methods state the sampling rule, the loop
spells it inline (``tests/datagen`` holds the two equal).  Its
``random.Random`` draw order *is* the data set (a digest is pinned there
too): reorder no draw.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from typing import Optional

from ..geometry.table import BoxTable
from .region import BoxColumns, Chain, Region, check_count

__all__ = ["generate_streets"]

#: Mean street-segment step length, absolute units of the unit-scale region.
STEP_LENGTH = 0.00009


def generate_streets(
    region: Region,
    count: int,
    seed: int,
    include_geometry: bool = False,
) -> tuple[BoxTable, Optional[list[Chain]]]:
    """Generate *count* streets over *region*: their boxes as one table
    (object ids run from 0 to ``count - 1``) and, under *include_geometry*
    only, their point chains in row order.  Deterministic for a given
    ``(region, count, seed)``; keeping the geometry perturbs no draw."""
    check_count(count)
    rng = random.Random(seed)
    random_, uniform, gauss, randint = rng.random, rng.uniform, rng.gauss, rng.randint
    columns = BoxColumns(include_geometry)
    add_xl, add_yl = columns.xl.append, columns.yl.append
    add_xu, add_yu = columns.xu.append, columns.yu.append
    chains = columns.chains
    side = region.side
    cities, sigmas, cumulative = region.cities, region.city_sigmas, region.cumulative
    last_city = len(cities) - 1
    cos, sin = math.cos, math.sin
    grid_angles = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)
    for _ in range(count):
        # Region.sample_settlement_point (with pick_city and clamp), spelled
        # without the calls: the same draws in the same order, the same floats
        if random_() < 0.15:
            x = uniform(0, side)
            y = uniform(0, side)
        else:
            index = bisect_left(cumulative, random_(), 0, last_city)
            cx, cy = cities[index]
            sigma = sigmas[index]
            x = gauss(cx, sigma)
            y = gauss(cy, sigma)
            x = 0.0 if x < 0.0 else side if x > side else x
            y = 0.0 if y < 0.0 else side if y > side else y
        if random_() < 0.85:
            angle = rng.choice(grid_angles) + gauss(0.0, 0.06)
        else:
            angle = uniform(0.0, 2.0 * math.pi)
        # the chain's MBR, kept as it grows: Rect.from_points' floats
        xl = xu = x
        yl = yu = y
        if chains is not None:
            points = [(x, y)]
        for _ in range(randint(1, 3)):
            length = uniform(0.5, 1.5) * STEP_LENGTH
            angle += gauss(0.0, 0.15)
            x += length * cos(angle)
            y += length * sin(angle)
            x = 0.0 if x < 0.0 else side if x > side else x
            y = 0.0 if y < 0.0 else side if y > side else y
            if x < xl:
                xl = x
            elif x > xu:
                xu = x
            if y < yl:
                yl = y
            elif y > yu:
                yu = y
            if chains is not None:
                points.append((x, y))
        add_xl(xl)
        add_yl(yl)
        add_xu(xu)
        add_yu(yu)
        if chains is not None:
            chains.append(tuple(points))
    return columns.finish()
