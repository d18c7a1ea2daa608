"""Synthetic administrative boundaries, rivers and railway tracks (*map 2*).

The paper's second map mixes three linear feature classes over the same
region as the street map:

* **boundary segments** — edges of rectangular administrative rings drawn
  around settlements (cities and districts); medium-length, axis-parallel;
* **river segments** — pieces of long meandering random walks crossing the
  region; curved, with fatter MBRs;
* **railway segments** — pieces of long, nearly straight walks connecting
  city pairs.

The class mix (60/25/15) is a free parameter of the substitution; what
matters for the reproduction is that map 2 clusters in the same places as
map 1 (settlements) while also containing long features that span many
street clusters — the workload property that makes some join tasks far more
expensive than others.

Like the street generator it writes columns, never per-feature objects,
and its ``random.Random`` draw order is pinned by a digest in the tests.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from ..geometry.table import BoxTable
from .region import BoxColumns, Chain, Region

__all__ = ["generate_boundaries"]

RIVER_STEP = 0.00038
RAIL_STEP = 0.0006


def generate_boundaries(
    region: Region,
    count: int,
    seed: int,
    include_geometry: bool = False,
    mix: tuple[float, float, float] = (0.60, 0.25, 0.15),
) -> tuple[BoxTable, Optional[list[Chain]]]:
    """Generate *count* map-2 features — boundaries, then rivers, then
    railways — as one table plus, under *include_geometry* only, their
    point chains in row order."""
    if abs(sum(mix) - 1.0) > 1e-9:
        raise ValueError("feature mix must sum to 1")
    rng = random.Random(seed)
    boundaries = min(count, round(count * mix[0]))
    rivers = min(count, boundaries + round(count * mix[1]))
    columns = BoxColumns(include_geometry)
    _ring_edges(region, rng, columns, boundaries)
    _walk_pieces(region, rng, columns, rivers, RIVER_STEP, curviness=0.5)
    _walk_pieces(region, rng, columns, count, RAIL_STEP, curviness=0.08)
    return columns.finish()


def _ring_edges(
    region: Region, rng: random.Random, columns: BoxColumns, until: int
) -> None:
    """Edges of rectangular rings around settlement points, appended until
    *columns* holds *until* rows."""
    while len(columns) < until:
        cx, cy = region.sample_settlement_point(rng, rural_fraction=0.25)
        w = rng.uniform(0.0006, 0.002)
        h = rng.uniform(0.0006, 0.002)
        x0, y0 = region.clamp(cx - w / 2.0, cy - h / 2.0)
        x1, y1 = region.clamp(cx + w / 2.0, cy + h / 2.0)
        xs, ys = (x0, x1, x1, x0, x0), (y0, y0, y1, y1, y0)
        # Each ring edge is one boundary object (TIGER stores edges).
        for edge in range(min(4, until - len(columns))):
            columns.add_chain(xs[edge : edge + 2], ys[edge : edge + 2])


def _walk_pieces(
    region: Region,
    rng: random.Random,
    columns: BoxColumns,
    until: int,
    step: float,
    curviness: float,
) -> None:
    """Pieces of long random walks (rivers / railways) across the region,
    appended until *columns* holds *until* rows."""
    side = region.side
    cos, sin, gauss, randint = math.cos, math.sin, rng.gauss, rng.randint
    segments_per_walk = max(8, round(40 * math.sqrt(region.scale)))
    while len(columns) < until:
        x, y = rng.uniform(0, side), rng.uniform(0, side)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        for _ in range(min(segments_per_walk, until - len(columns))):
            xs, ys = [x], [y]
            for _ in range(randint(2, 4)):
                angle += gauss(0.0, curviness)
                # Region.clamp, spelled without the calls (same floats)
                x += step * cos(angle)
                y += step * sin(angle)
                x = 0.0 if x < 0.0 else side if x > side else x
                y = 0.0 if y < 0.0 else side if y > side else y
                xs.append(x)
                ys.append(y)
            columns.add_chain(xs, ys)
