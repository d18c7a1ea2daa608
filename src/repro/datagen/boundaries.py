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

Like the street generator it writes columns, never per-feature objects; its
loops spell the :class:`Region` rules and ``random.py``'s wrappers inline and
share one ``gauss`` closure; the order of their draws is pinned by digests.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from numbers import Real
from typing import Optional

from ..geometry.table import BoxTable
from .region import BoxColumns, Chain, Region, check_count, check_seed, gauss_from

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
    check_count(count)
    if not (
        len(mix) == 3
        and all(isinstance(share, Real) and 0.0 <= share <= 1.0 for share in mix)
        and abs(sum(mix) - 1.0) <= 1e-9
    ):
        raise ValueError(
            f"mix must be three shares in [0, 1] that sum to 1, not {mix!r}"
        )
    check_seed(seed)
    rng = random.Random(seed)
    draws = (rng.random, rng.getrandbits, gauss_from(rng.random))
    boundaries = min(count, round(count * mix[0]))
    rivers = min(count, boundaries + round(count * mix[1]))
    columns = BoxColumns(include_geometry)
    _ring_edges(region, draws, columns, boundaries)
    _walk_pieces(region, draws, columns, rivers, RIVER_STEP, curviness=0.5)
    _walk_pieces(region, draws, columns, count, RAIL_STEP, curviness=0.08)
    return columns.finish()


def _ring_edges(region: Region, draws, columns: BoxColumns, until: int) -> None:
    """Edges of rectangular rings around settlement points, appended until
    *columns* holds *until* rows."""
    random_, _, gauss = draws
    add_xl, add_yl = columns.xl.append, columns.yl.append
    add_xu, add_yu = columns.xu.append, columns.yu.append
    chains = columns.chains
    side = region.side
    cities, sigmas, cumulative = region.cities, region.city_sigmas, region.cumulative
    last_city = len(cities) - 1
    made = len(columns)
    while made < until:
        # Region.sample_settlement_point(rng, rural_fraction=0.25) and the
        # two Region.clamp calls, spelled inline: same draws, same floats
        if random_() < 0.25:
            cx = side * random_()  # uniform(0, side)
            cy = side * random_()
        else:
            index = bisect_left(cumulative, random_(), 0, last_city)
            cx, cy = cities[index]
            sigma = sigmas[index]
            cx = gauss(cx, sigma)
            cy = gauss(cy, sigma)
            cx = 0.0 if cx < 0.0 else side if cx > side else cx
            cy = 0.0 if cy < 0.0 else side if cy > side else cy
        w = 0.0006 + (0.002 - 0.0006) * random_()  # uniform(0.0006, 0.002)
        h = 0.0006 + (0.002 - 0.0006) * random_()
        x0, y0 = cx - w / 2.0, cy - h / 2.0
        x1, y1 = cx + w / 2.0, cy + h / 2.0
        x0 = 0.0 if x0 < 0.0 else side if x0 > side else x0
        y0 = 0.0 if y0 < 0.0 else side if y0 > side else y0
        x1 = 0.0 if x1 < 0.0 else side if x1 > side else x1
        y1 = 0.0 if y1 < 0.0 else side if y1 > side else y1
        # Each ring edge is one boundary object (TIGER stores edges):
        # bottom, right, top, left; x0 <= x1 and y0 <= y1 (clamp is monotone).
        edges = (
            (x0, y0, x1, y0), (x1, y0, x1, y1), (x0, y1, x1, y1), (x0, y0, x0, y1)
        )[: until - made]
        for xl, yl, xu, yu in edges:
            add_xl(xl)
            add_yl(yl)
            add_xu(xu)
            add_yu(yu)
        if chains is not None:
            xs, ys = (x0, x1, x1, x0, x0), (y0, y0, y1, y1, y0)
            for edge in range(len(edges)):
                chains.append(tuple(zip(xs[edge : edge + 2], ys[edge : edge + 2])))
        made += len(edges)


def _walk_pieces(
    region: Region,
    draws,
    columns: BoxColumns,
    until: int,
    step: float,
    curviness: float,
) -> None:
    """Pieces of long random walks (rivers / railways) across the region,
    appended until *columns* holds *until* rows."""
    side = region.side
    random_, getrandbits, gauss = draws
    cos, sin, two_pi = math.cos, math.sin, 2.0 * math.pi
    add_xl, add_yl = columns.xl.append, columns.yl.append
    add_xu, add_yu = columns.xu.append, columns.yu.append
    chains = columns.chains
    segments_per_walk = max(8, round(40 * math.sqrt(region.scale)))
    made = len(columns)
    while made < until:
        x, y = side * random_(), side * random_()  # uniform(0, side)
        angle = two_pi * random_()  # uniform(0.0, 2 pi)
        pieces = min(segments_per_walk, until - made)
        for _ in range(pieces):
            # the piece's MBR, kept as it grows: Rect.from_points' floats
            xl = xu = x
            yl = yu = y
            if chains is not None:
                points = [(x, y)]
            while (r := getrandbits(2)) >= 3:  # randint(2, 4): 2 + _randbelow(3)
                pass
            for _ in range(2 + r):
                angle += gauss(0.0, curviness)
                # Region.clamp, spelled without the calls (same floats)
                x += step * cos(angle)
                y += step * sin(angle)
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
        made += pieces
