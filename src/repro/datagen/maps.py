"""The two evaluation maps and their R*-trees (paper sections 4.1 / Table 1).

:func:`paper_maps` generates stand-ins for the two TIGER county maps —
131,443 street objects and 127,312 boundary/river/railway objects at full
scale — over one shared :class:`~repro.datagen.region.Region`, and
:func:`build_tree` packs a map into an R*-tree whose occupancy matches the
dynamically built trees of the paper (the STR ``fill``/``dir_fill`` values
below reproduce Table 1's page counts and height 3 at full scale).
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class MapData:
    """One generated map: named objects over a region."""

    name: str
    region: Region
    objects: list[SpatialObject]

    def items(self) -> list[tuple[int, Rect]]:
        """``(oid, mbr)`` pairs, the input format of the tree builders."""
        return [(o.oid, o.mbr) for o in self.objects]

    def table(self) -> BoxTable:
        """The same rows as one columnar :class:`BoxTable`, filled straight
        from the objects — what the flat builder and the partitioner read.
        Built on every call: a map does not keep its columns."""
        return BoxTable.from_rects(
            [o.oid for o in self.objects], [o.mbr for o in self.objects]
        )

    def __len__(self) -> int:
        return len(self.objects)

    def __repr__(self) -> str:
        return f"<MapData {self.name!r} {len(self.objects)} objects>"


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
        MapData("map 1 (streets)", region, streets),
        MapData("map 2 (boundaries, rivers, railways)", region, features),
    )


def build_tree(map_data: MapData, *, fill: float = LEAF_FILL, dir_fill: float = DIR_FILL) -> RStarTree:
    """Pack a map into an R*-tree with paper-like occupancy.

    The one builder that reads :meth:`MapData.items`: node entries share
    the float objects of the map's own rectangles, which a table's columns
    would copy (+24 MB of resident memory for the two full-scale trees).
    """
    return str_bulk_load(map_data.items(), fill=fill, dir_fill=dir_fill)
