"""Sort-Tile-Recursive (STR) bulk loading.

The paper's trees were built dynamically, which yields average node fills
around 70 %.  For experiments that need many large trees quickly, STR
packing builds an equivalent tree in O(n log n): sort by x-center, cut into
vertical slabs, sort each slab by y-center, pack runs of ``fill * capacity``
entries into leaves, then repeat one level up until a single root remains.
The ``fill`` knob reproduces dynamic-build occupancy (0.70 gives page
counts close to the paper's Table 1).
"""

from __future__ import annotations

import math
from typing import Optional

from ..geometry.table import BoxTable
from ..storage.page import StorageParams
from .entry import Entry
from .node import Node
from .rstar import RStarTree

__all__ = ["str_bulk_load"]


def str_bulk_load(
    items,
    storage: Optional[StorageParams] = None,
    *,
    fill: float = 0.7,
    dir_fill: Optional[float] = None,
    dir_capacity: Optional[int] = None,
    data_capacity: Optional[int] = None,
    min_fill: float = 0.4,
) -> RStarTree:
    """Build an R*-tree over a sequence of ``(oid, rect)`` pairs — or a
    :class:`~repro.geometry.table.BoxTable` — by STR packing.

    ``fill`` is the target leaf occupancy as a fraction of capacity;
    ``dir_fill`` (defaulting to ``fill``) controls directory levels
    separately — dynamically built trees tend to pack directory nodes a
    bit denser, and a slightly higher ``dir_fill`` reproduces the paper's
    height-3 trees.  When one directory node suffices for a level, it
    becomes the root regardless of fill.  The resulting tree satisfies
    every invariant of :meth:`RStarTree.validate` and supports subsequent
    dynamic inserts and deletes.
    """
    tree = RStarTree(
        storage,
        dir_capacity=dir_capacity,
        data_capacity=data_capacity,
        min_fill=min_fill,
    )
    if not 0.0 < fill <= 1.0:
        raise ValueError("fill must be in (0, 1]")
    if dir_fill is None:
        dir_fill = fill
    if not 0.0 < dir_fill <= 1.0:
        raise ValueError("dir_fill must be in (0, 1]")
    table = BoxTable.from_items(items)
    if not len(table):
        return tree

    # An entry keeps its four coordinates as float objects.  Pairs lend it
    # theirs (a map's Rects outlive its tree, and sharing them saves 96 B
    # an entry: 24 MB over both full-scale maps); a table has none to lend.
    pairs = table.items() if items is table else items
    entries = [Entry.for_object(rect, oid) for oid, rect in pairs]
    per_leaf = max(tree.min_data, int(tree.data_capacity * fill))
    nodes = _pack_level(entries, level=0, per_node=per_leaf, min_count=tree.min_data)
    height = 1
    per_dir = max(tree.min_dir, int(tree.dir_capacity * dir_fill))
    while len(nodes) > 1:
        parent_entries = [Entry.for_child(node) for node in nodes]
        if len(parent_entries) <= tree.dir_capacity:
            nodes = [Node(height, parent_entries)]
        else:
            nodes = _pack_level(
                parent_entries, level=height, per_node=per_dir, min_count=tree.min_dir
            )
        height += 1

    tree.root = nodes[0]
    tree.height = height
    tree.size = len(table)
    return tree


def _pack_level(
    entries: list[Entry], level: int, per_node: int, min_count: int
) -> list[Node]:
    """Tile *entries* into nodes of ~``per_node`` entries, STR style.

    All produced nodes hold between ``min_count`` and slightly above
    ``per_node`` entries (never more than ``2 * min_count`` above, which
    stays within capacity because ``min_count`` is at most 50 % of it).
    """
    total = len(entries)
    if total <= per_node:
        return [Node(level, list(entries))]
    node_count = _node_count(total, per_node, min_count)
    slab_count = math.ceil(math.sqrt(node_count))

    by_x = sorted(entries, key=_center_x)
    nodes: list[Node] = []
    for slab in _even_chunks(by_x, slab_count):
        slab.sort(key=_center_y)
        runs = _node_count(len(slab), per_node, min_count)
        for run in _even_chunks(slab, runs):
            nodes.append(Node(level, run))
    return nodes


def _node_count(total: int, per_node: int, min_count: int) -> int:
    """How many nodes to spread *total* entries over so that an even split
    keeps every node at or above *min_count*."""
    wanted = math.ceil(total / per_node)
    feasible = max(1, total // min_count)
    return max(1, min(wanted, feasible))


def _even_chunks(seq: list[Entry], chunk_count: int) -> list[list[Entry]]:
    """Split *seq* into *chunk_count* contiguous chunks of near-equal size."""
    base, extra = divmod(len(seq), chunk_count)
    chunks: list[list[Entry]] = []
    start = 0
    for index in range(chunk_count):
        size = base + (1 if index < extra else 0)
        chunks.append(seq[start : start + size])
        start += size
    return chunks


def _center_x(entry: Entry) -> float:
    return entry.xl + entry.xu


def _center_y(entry: Entry) -> float:
    return entry.yl + entry.yu
