"""The synthetic study region and its settlement structure.

The paper's test data are TIGER/Line files of Californian counties
[Bur 89]: street segments concentrate in cities and towns, with sparse
rural roads between them, and the second map's boundaries, rivers and
railway tracks span the same region.  We reproduce that *spatial
character* with a seeded settlement model: a set of weighted population
centers (cities) inside a square region.  All generators draw locations
from this model, so both maps cluster in the same places — which is what
creates the spatially skewed join workload the paper's load balancing is
about.

Scaling: ``scale`` shrinks the object counts; the region side shrinks with
``sqrt(scale)`` so the object *density* — and with it the per-object join
selectivity — stays constant across scales.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from numbers import Integral, Real
from typing import Optional

import numpy as np

from ..geometry.rect import Rect
from ..geometry.table import BoxTable

__all__ = ["Region", "SpatialObject", "BoxColumns", "check_count", "check_seed", "gauss_from"]

Chain = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class SpatialObject:
    """One map object: identifier, MBR, and optionally the exact polyline.

    ``points`` is None when the generator was asked to skip exact geometry
    (benchmarks only need MBRs; the refinement cost is a function of the
    MBRs per section 4.2).  A map builds these per call from its columns
    (:attr:`MapData.objects`) and keeps none.
    """

    oid: int
    mbr: Rect
    points: Optional[Chain] = field(default=None, compare=False)


def check_count(count) -> None:
    """A generator's *count* argument: an integer, zero or more."""
    if not (isinstance(count, Integral) and count >= 0):
        raise ValueError(f"count must be an integer >= 0, not {count!r}")


def check_seed(seed) -> None:
    """A *seed* argument: an integer (``Random(None)`` is another map a call)."""
    if not isinstance(seed, Integral):
        raise ValueError(f"seed must be an integer, not {seed!r}")


def gauss_from(random_):
    """``Random.gauss`` over the bound *random_* as CPython spells it — the
    Box–Muller pair: cosine now, sine kept as the spare — so a generator's
    loop enters no frame of ``random.py``.  The spare lives in the closure
    as it lived in the ``Random``: loops sharing one share the closure."""
    spare = None
    cos, sin, sqrt, log, two_pi = math.cos, math.sin, math.sqrt, math.log, 2.0 * math.pi

    def gauss(mu, sigma):
        nonlocal spare
        z, spare = spare, None
        if z is None:
            x2pi = random_() * two_pi
            g2rad = sqrt(-2.0 * log(1.0 - random_()))
            z = cos(x2pi) * g2rad
            spare = sin(x2pi) * g2rad
        return mu + z * sigma

    return gauss


class BoxColumns:
    """What a generator writes: one box a point chain, as four raw-double
    columns, and the chains themselves only when exact geometry is kept.
    A generator's loop appends to the columns itself — a row is the MBR of
    its chain, the floats :meth:`Rect.from_points` would pick (the first
    of equal extremes)."""

    def __init__(self, include_geometry: bool):
        self.xl, self.yl, self.xu, self.yu = (array("d") for _ in range(4))
        self.chains: Optional[list[Chain]] = [] if include_geometry else None

    def __len__(self) -> int:
        return len(self.xl)

    def finish(self) -> tuple[BoxTable, Optional[list[Chain]]]:
        """The table over the columns — no copy: the arrays stay its
        storage — with the row numbers as oids, and the chains."""
        rows = np.arange(len(self))
        return BoxTable(rows, self.xl, self.yl, self.xu, self.yu), self.chains


class Region:
    """A square study area with weighted city centers."""

    def __init__(self, scale: float = 1.0, seed: int = 42, cities_per_unit: int = 36):
        if not (isinstance(scale, Real) and 0 < scale < math.inf):
            raise ValueError(f"scale must be a finite positive number, not {scale!r}")
        check_seed(seed)
        if not (isinstance(cities_per_unit, Integral) and cities_per_unit > 0):
            raise ValueError(
                f"cities_per_unit must be a positive integer, not {cities_per_unit!r}"
            )
        self.scale = scale
        self.seed = seed
        self.side = math.sqrt(scale)
        self.bounds = Rect(0.0, 0.0, self.side, self.side)
        rng = random.Random(seed)
        count = max(3, round(cities_per_unit * scale))
        self.cities: list[tuple[float, float]] = []
        self.city_sigmas: list[float] = []
        weights: list[float] = []
        for _ in range(count):
            self.cities.append((rng.uniform(0, self.side), rng.uniform(0, self.side)))
            # City footprint: a few percent of the region side.
            self.city_sigmas.append(rng.uniform(0.015, 0.05))
            # Zipf-ish population weights: a few big cities, many towns.
            weights.append(rng.paretovariate(1.2))
        total = sum(weights)
        self.city_weights = [w / total for w in weights]
        #: Running sums of ``city_weights``: what :meth:`pick_city` bisects.
        self.cumulative = list(accumulate(self.city_weights))

    def pick_city(self, rng: random.Random) -> int:
        """Sample a city index proportional to population weight."""
        return bisect_left(self.cumulative, rng.random(), 0, len(self.cities) - 1)

    def sample_settlement_point(
        self, rng: random.Random, rural_fraction: float = 0.15
    ) -> tuple[float, float]:
        """A location: usually near a city, sometimes rural."""
        if rng.random() < rural_fraction:
            return (rng.uniform(0, self.side), rng.uniform(0, self.side))
        index = self.pick_city(rng)
        cx, cy = self.cities[index]
        sigma = self.city_sigmas[index]
        return self.clamp(rng.gauss(cx, sigma), rng.gauss(cy, sigma))

    def clamp(self, x: float, y: float) -> tuple[float, float]:
        return (min(max(x, 0.0), self.side), min(max(y, 0.0), self.side))

    def __repr__(self) -> str:
        return f"<Region scale={self.scale} side={self.side:.3f} cities={len(self.cities)}>"
