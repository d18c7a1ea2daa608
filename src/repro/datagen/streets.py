"""Synthetic street segments — the stand-in for the paper's *map 1*.

TIGER street records are short polylines following a mostly rectilinear
street grid.  Each generated street starts at a settlement point, picks a
grid direction (axis-parallel with jitter, occasionally diagonal) and walks
one to three short steps.  Streets therefore produce small, thin, heavily
clustered MBRs — the MBR population whose skew drives the paper's task
imbalance.

The generator writes columns — four doubles a street into a
:class:`BoxColumns`, no per-street object.  Its ``random.Random`` draw
order *is* the data set (``tests/datagen`` pins a digest): reorder no draw.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from ..geometry.table import BoxTable
from .region import BoxColumns, Chain, Region

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
    rng = random.Random(seed)
    random_, uniform, gauss, randint = rng.random, rng.uniform, rng.gauss, rng.randint
    columns = BoxColumns(include_geometry)
    side = region.side
    cos, sin = math.cos, math.sin
    grid_angles = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)
    for _ in range(count):
        x, y = region.sample_settlement_point(rng)
        if random_() < 0.85:
            angle = rng.choice(grid_angles) + gauss(0.0, 0.06)
        else:
            angle = uniform(0.0, 2.0 * math.pi)
        xs, ys = [x], [y]
        for _ in range(randint(1, 3)):
            length = uniform(0.5, 1.5) * STEP_LENGTH
            angle += gauss(0.0, 0.15)
            # Region.clamp, spelled without the calls (same floats)
            x += length * cos(angle)
            y += length * sin(angle)
            x = 0.0 if x < 0.0 else side if x > side else x
            y = 0.0 if y < 0.0 else side if y > side else y
            xs.append(x)
            ys.append(y)
        columns.add_chain(xs, ys)
    return columns.finish()
