"""Synthetic street segments — the stand-in for the paper's *map 1*.

TIGER street records are short polylines following a mostly rectilinear
street grid.  Each generated street starts at a settlement point, picks a
grid direction (axis-parallel with jitter, occasionally diagonal) and walks
one to three short steps.  Streets therefore produce small, thin, heavily
clustered MBRs — the MBR population whose skew drives the paper's task
imbalance.

The generator writes columns — four doubles a street into a
:class:`BoxColumns`, no per-street object — and its loop runs nothing
interpreted but the :func:`gauss_from` closure: the :class:`Region` rules
and ``random.py``'s wrappers are spelled inline (``tests/datagen`` holds
each pair equal).  The order in which ``random()`` and ``getrandbits()`` are
consumed *is* the data set (digests are pinned there too): reorder no draw.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from typing import Optional

from ..geometry.table import BoxTable
from .region import BoxColumns, Chain, Region, check_count, check_seed, gauss_from

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
    check_seed(seed)
    rng = random.Random(seed)
    random_, getrandbits, gauss = rng.random, rng.getrandbits, gauss_from(rng.random)
    columns = BoxColumns(include_geometry)
    add_xl, add_yl = columns.xl.append, columns.yl.append
    add_xu, add_yu = columns.xu.append, columns.yu.append
    chains = columns.chains
    side = region.side
    cities, sigmas, cumulative = region.cities, region.city_sigmas, region.cumulative
    last_city = len(cities) - 1
    cos, sin, two_pi = math.cos, math.sin, 2.0 * math.pi
    grid_angles = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)
    for _ in range(count):
        # Region.sample_settlement_point (with pick_city and clamp), spelled
        # without the calls: the same draws in the same order, the same floats
        if random_() < 0.15:
            x = side * random_()  # uniform(0, side)
            y = side * random_()
        else:
            index = bisect_left(cumulative, random_(), 0, last_city)
            cx, cy = cities[index]
            sigma = sigmas[index]
            x = gauss(cx, sigma)
            y = gauss(cy, sigma)
            x = 0.0 if x < 0.0 else side if x > side else x
            y = 0.0 if y < 0.0 else side if y > side else y
        if random_() < 0.85:
            while (r := getrandbits(3)) >= 4:  # choice: _randbelow(4)
                pass
            angle = grid_angles[r] + gauss(0.0, 0.06)
        else:
            angle = two_pi * random_()  # uniform(0.0, 2 pi)
        # the chain's MBR, kept as it grows: Rect.from_points' floats
        xl = xu = x
        yl = yu = y
        if chains is not None:
            points = [(x, y)]
        while (r := getrandbits(2)) >= 3:  # randint(1, 3): 1 + _randbelow(3)
            pass
        for _ in range(1 + r):
            length = (0.5 + random_()) * STEP_LENGTH  # uniform(0.5, 1.5)
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
