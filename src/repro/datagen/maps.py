"""The two evaluation maps and their R*-trees (paper sections 4.1 / Table 1).

:func:`paper_maps` generates stand-ins for the two TIGER county maps —
131,443 street and 127,312 boundary/river/railway objects at full scale,
each map one columnar :class:`BoxTable` — over one shared :class:`Region`;
:func:`build_tree` packs a map's table into an R*-tree whose occupancy
matches the paper's dynamically built trees (the STR ``fill``/``dir_fill``
values below reproduce Table 1's page counts and height 3 at full scale).
"""

from __future__ import annotations

from ..geometry.rect import Rect
from ..geometry.table import BoxTable
from ..rtree.bulk import str_bulk_load
from ..rtree.rstar import RStarTree
from .boundaries import generate_boundaries
from .region import Region, SpatialObject
from .streets import generate_streets

__all__ = ["MapData", "paper_maps", "build_tree", "MAP1_COUNT", "MAP2_COUNT"]

#: Object counts of the paper's maps (section 4.1).
MAP1_COUNT = 131443
MAP2_COUNT = 127312

#: STR occupancy reproducing the paper's dynamically-built tree shapes
#: (about 72 % leaf fill; directory levels pack a little denser so the
#: full-scale trees have height 3 like Table 1).
LEAF_FILL = 0.731
DIR_FILL = 0.80


class MapData:
    """One generated map: a name, its region, the boxes as one
    :class:`BoxTable` (row *i* is object *i*) and, when the generator kept
    them, the exact point chains in row order.  The table is the map: the
    object views below are built from it per call and never kept."""

    def __init__(self, name: str, region: Region, table: BoxTable, chains=None):
        self.name, self.region = name, region
        self._table, self._chains = table, chains

    def table(self) -> BoxTable:
        """*The* table of the map — the same one to every builder."""
        return self._table

    def items(self) -> list[tuple[int, Rect]]:
        """``(oid, mbr)`` pairs, for oracles and examples (a fresh list)."""
        return self._table.items()

    @property
    def objects(self) -> list[SpatialObject]:
        """One :class:`SpatialObject` a row (a fresh list)."""
        chains = self._chains or [None] * len(self)
        return [
            SpatialObject(oid, mbr, points)
            for (oid, mbr), points in zip(self.items(), chains)
        ]

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return f"<MapData {self.name!r} {len(self)} objects>"


def paper_maps(
    scale: float = 1.0,
    seed: int = 42,
    include_geometry: bool = False,
) -> tuple[MapData, MapData]:
    """Generate map 1 (streets) and map 2 (boundaries/rivers/railways).

    ``scale`` multiplies the object counts; the region area scales along,
    keeping density — and with it the join selectivity per object —
    constant.  Deterministic per ``(scale, seed)``.
    """
    region = Region(scale=scale, seed=seed)
    count1 = max(1, round(MAP1_COUNT * scale))
    count2 = max(1, round(MAP2_COUNT * scale))
    streets = generate_streets(
        region, count1, seed=seed + 1, include_geometry=include_geometry
    )
    features = generate_boundaries(
        region, count2, seed=seed + 2, include_geometry=include_geometry
    )
    return (
        MapData("map 1 (streets)", region, *streets),
        MapData("map 2 (boundaries, rivers, railways)", region, *features),
    )


def build_tree(map_data: MapData, *, fill: float = LEAF_FILL, dir_fill: float = DIR_FILL) -> RStarTree:
    """Pack a map into an R*-tree with paper-like occupancy."""
    return str_bulk_load(map_data.table(), fill=fill, dir_fill=dir_fill)
