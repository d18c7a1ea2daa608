"""Query operations beyond the basic window search.

The paper's future-work section names neighbour and window queries as the
operations a parallel spatial query framework must also support; this
module provides both over the same R*-tree:

* :func:`window_query` — standalone window search with page-access
  accounting (how many nodes were touched), used by examples and benches;
* :func:`nearest_neighbors` — best-first k-NN search over MBR distances.

Both functions are *backend entry points*: they accept either the
pointer-based :class:`~repro.rtree.rstar.RStarTree` or the packed
:class:`~repro.rtree.flat.FlatRTree` and produce identical result sets
either way.  They ask :func:`~repro.rtree.flat.is_flat`, imported inside
each dispatcher because :mod:`repro.rtree.flat` itself imports
:class:`QueryStats` and :func:`require_k` from this module.  They are
also where query coordinates are checked (:func:`coordinate_error`): a
NaN compares false with everything, so below this line it would be
answered with silence or with arbitrary rows, differently per backend.
"""

from __future__ import annotations

import heapq
import itertools
import math
from numbers import Integral, Real
from typing import Iterable, Optional, Sequence

from ..geometry.rect import Rect
from .entry import Entry
from .rstar import RStarTree

__all__ = ["window_query", "nearest_neighbors", "QueryStats"]

WINDOW_FIELDS = ("window.xl", "window.yl", "window.xu", "window.yu")


def coordinate_error(
    fields: Iterable[tuple[str, object]], *, infinite_ok: bool = False
) -> Optional[str]:
    """Why the first offending ``(name, value)`` of *fields* cannot be a
    query coordinate, or None — the one check of the serving front door
    and of the dispatchers below.  *infinite_ok* admits the infinities (a
    half-plane is a window; a point at infinity is not a point)."""
    for name, value in fields:
        if isinstance(value, Real) and (
            value == value if infinite_ok else math.isfinite(value)
        ):
            continue
        return f"{name} must be a finite number, got {value!r}"
    return None


def require_window(window) -> None:
    """Raise ``ValueError`` for a window with a NaN (or non-numeric) corner."""
    corners = (window.xl, window.yl, window.xu, window.yu)
    reason = coordinate_error(zip(WINDOW_FIELDS, corners), infinite_ok=True)
    if reason is not None:
        raise ValueError(reason)


def require_count(name: str, value, floor: int = 1) -> None:
    """Raise ``ValueError`` naming *name* unless *value* is an integer >=
    *floor*: a fraction is no count, and neither is a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < floor:
        raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")


def require_k(k) -> None:
    """Raise ``ValueError`` unless *k* is a count of neighbours (>= 1)."""
    require_count("k", k)


class QueryStats:
    """Nodes visited during one query, split by kind."""

    __slots__ = ("directory_nodes", "leaf_nodes")

    def __init__(self):
        self.directory_nodes = 0
        self.leaf_nodes = 0

    @property
    def total_nodes(self) -> int:
        return self.directory_nodes + self.leaf_nodes

    def __repr__(self) -> str:
        return f"QueryStats(dir={self.directory_nodes}, leaf={self.leaf_nodes})"


def window_query(
    tree, window: Rect, stats: Optional[QueryStats] = None
) -> Sequence[Entry]:
    """All data entries intersecting *window*, with node-visit accounting.

    The entry *set* is backend-independent; the order is the traversal
    order of the chosen backend (depth-first here, Z-order on the flat
    backend).  A node tree hands back a list of entries made from its
    leaves' rows for the hits; a packed tree an
    :class:`~repro.rtree.flat.EntryRows`, which makes an entry per row
    only when iterated.
    """
    from .flat import EntryRows, is_flat

    require_window(window)
    if is_flat(tree):
        return EntryRows(tree.table, tree.window_indices(window, stats))
    result: list[Entry] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if stats is not None:
            if node.is_leaf:
                stats.leaf_nodes += 1
            else:
                stats.directory_nodes += 1
        if node.is_leaf:
            result.extend(node.data_entries(window))
        else:
            for entry in node.entries:
                if entry.intersects(window):
                    stack.append(entry.child)
    return result


def nearest_neighbors(
    tree, x: float, y: float, k: int = 1
) -> Sequence[tuple[float, Entry]]:
    """The *k* data entries whose MBRs are nearest to point ``(x, y)``.

    Classic best-first search: a priority queue ordered by minimum MBR
    distance; directory entries expand, data entries pop as results.
    Returns ``(distance, entry)`` pairs in non-decreasing distance order.

    The result — including its order — is deterministic and identical on
    every backend: ties at exactly equal distance go to the smaller oid.
    The heap orders items by ``(distance, kind, tie)`` with nodes (kind 0)
    ahead of data entries (kind 1), so any subtree whose minimum distance
    ties a candidate entry is expanded *before* that entry is emitted;
    entries therefore pop in exact ``(distance, oid)`` order.
    """
    from .flat import is_flat

    require_k(k)
    reason = coordinate_error((("x", x), ("y", y)))
    if reason is not None:
        raise ValueError(reason)
    if is_flat(tree):
        return tree.nearest(x, y, k)
    if tree.size == 0:
        return []
    counter = itertools.count()  # unique seq: strict weak order for heapq
    heap: list[tuple] = [(0.0, 0, 0, next(counter), tree.root)]
    results: list[tuple[float, Entry]] = []
    while heap and len(results) < k:
        distance, kind, _tie, _seq, item = heapq.heappop(heap)
        if kind == 1:
            results.append((distance, item))
            continue
        if item.is_leaf:
            for entry in item.data_entries():
                d = _min_distance(entry, x, y)
                heapq.heappush(heap, (d, 1, entry.oid, next(counter), entry))
            continue
        for entry in item.entries:
            d = _min_distance(entry, x, y)
            heapq.heappush(heap, (d, 0, next(counter), next(counter), entry.child))
    return results


def _min_distance(entry: Entry, x: float, y: float) -> float:
    dx = max(entry.xl - x, x - entry.xu, 0.0)
    dy = max(entry.yl - y, y - entry.yu, 0.0)
    # math.sqrt (correctly rounded, like np.sqrt) rather than ** 0.5
    # (libm pow, off by an ulp for some inputs): backend parity demands
    # bit-identical distances.
    return math.sqrt(dx * dx + dy * dy)
