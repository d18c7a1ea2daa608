"""Geometric primitives: MBR algebra, exact geometry, plane sweep.

This package is the foundation both of the R*-tree (``repro.rtree``) and of
the join algorithms (``repro.join``).  See the paper's section 2.2 for the
plane-sweep formulation reproduced in :mod:`repro.geometry.planesweep`.
"""

from .brute import brute_join_pairs, brute_window_query
from .hull import ConvexPolygon, convex_hull
from .planesweep import restrict_rows, sweep_rows
from .polygon import Polygon
from .polyline import Polyline
from .rect import Rect
from .rows import PairTable, RowSet
from .segment import Segment
from .table import BoxTable

__all__ = [
    "Rect",
    "BoxTable",
    "RowSet",
    "PairTable",
    "Segment",
    "Polyline",
    "Polygon",
    "ConvexPolygon",
    "convex_hull",
    "sweep_rows",
    "restrict_rows",
    "brute_join_pairs",
    "brute_window_query",
]
