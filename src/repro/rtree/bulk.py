"""Sort-Tile-Recursive (STR) bulk loading.

The paper's trees were built dynamically, which yields average node fills
around 70 %.  For experiments that need many large trees quickly, STR
packing builds an equivalent tree in O(n log n): sort by x-center, cut into
vertical slabs, sort each slab by y-center, pack runs of ``fill * capacity``
entries into leaves, then repeat one level up until a single root remains.
The ``fill`` knob reproduces dynamic-build occupancy (0.70 gives page
counts close to the paper's Table 1).

The input is read as a :class:`~repro.geometry.table.BoxTable` (``(oid,
rect)`` pairs are turned into one first).  Its leaf level — nearly all of
the work — is ordered by numpy sorts over the columns
(:func:`_pack_leaves`), and the permutation those sorts compute is kept
as the tree's leaf order: each leaf is a row range of it over the input
table itself, whose MBR is reduced from the sorted columns.  No box or
oid is copied; the tree references the table (:mod:`repro.rtree.node`).
The few directory entries above the leaves tile as entry lists
(:func:`_pack_level`).  A build makes a few objects a leaf, none a data
entry.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

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
    """Build an R*-tree over a :class:`~repro.geometry.table.BoxTable` —
    or a sequence of ``(oid, rect)`` pairs, read as one — by STR packing.

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

    per_leaf = max(tree.min_data, int(tree.data_capacity * fill))
    per_dir = max(tree.min_dir, int(tree.dir_capacity * dir_fill))
    # *cover*: one directory entry a node of the level below
    cover = _pack_leaves(table, per_node=per_leaf, min_count=tree.min_data)
    height = 1
    while len(cover) > 1:
        if len(cover) <= tree.dir_capacity:
            cover = _cover([Node(height, cover)])
        else:
            cover = _cover(_pack_level(cover, height, per_dir, tree.min_dir))
        height += 1

    tree.root = cover[0].child
    tree.height = height
    tree.size = len(table)
    return tree


def _cover(nodes: list[Node]) -> list[Entry]:
    return [Entry.for_child(node) for node in nodes]


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
    for slab in _chunks(by_x, _even_sizes(total, slab_count)):
        slab.sort(key=_center_y)
        runs = _node_count(len(slab), per_node, min_count)
        for run in _chunks(slab, _even_sizes(len(slab), runs)):
            nodes.append(Node(level, run))
    return nodes


def _pack_leaves(table: BoxTable, per_node: int, min_count: int) -> list[Entry]:
    """The leaf level of :func:`_pack_level` over the rows of *table*, as
    the directory entries that cover it: the same two stable sorts, done
    on the center columns, give one permutation of the table's rows, cut
    into one row range a leaf — every leaf reads *table* itself through
    that one ``int64`` permutation — and each leaf's MBR reduced from the
    sorted columns (the floats ``Node.mbr_tuple`` finds)."""
    if table.oids.dtype == object:
        for row, oid in enumerate(table.oids.tolist()):
            if oid is None:  # None marks a directory entry
                raise ValueError(f"row {row} has oid None: a data entry needs an oid")
    total = len(table)
    if total <= per_node:
        order, sizes = np.arange(total, dtype=np.int64), [total]
    else:
        node_count = _node_count(total, per_node, min_count)
        slabs = _even_sizes(total, math.ceil(math.sqrt(node_count)))
        by_x = np.argsort(table.xl + table.xu, kind="stable")
        slab_of = np.repeat(np.arange(len(slabs)), slabs)
        # lexsort is stable: equal y-centers keep their x order in a slab
        order = by_x[np.lexsort(((table.yl + table.yu)[by_x], slab_of))]
        sizes = [
            size
            for slab in slabs
            for size in _even_sizes(slab, _node_count(slab, per_node, min_count))
        ]
    edges = np.cumsum([0, *sizes])
    bounds = (
        reduce.reduceat(column[order], edges[:-1]).tolist()
        for reduce, column in zip(
            (np.minimum, np.minimum, np.maximum, np.maximum),
            (table.xl, table.yl, table.xu, table.yu),
        )
    )
    edges = edges.tolist()  # a leaf's hi is the next one's lo: one int
    return [
        Entry(*mbr, Node.over(table, order, lo, hi, mbr))
        for mbr, lo, hi in zip(zip(*bounds), edges, edges[1:])
    ]


def _node_count(total: int, per_node: int, min_count: int) -> int:
    """How many nodes to spread *total* entries over so that an even split
    keeps every node at or above *min_count*."""
    wanted = math.ceil(total / per_node)
    feasible = max(1, total // min_count)
    return max(1, min(wanted, feasible))


def _even_sizes(total: int, chunk_count: int) -> list[int]:
    """*chunk_count* near-equal sizes summing to *total*, larger ones first."""
    base, extra = divmod(total, chunk_count)
    return [base + 1] * extra + [base] * (chunk_count - extra)


def _chunks(seq: list[Entry], sizes: list[int]) -> list[list[Entry]]:
    """Split *seq* into contiguous chunks of the given *sizes*."""
    chunks: list[list[Entry]] = []
    start = 0
    for size in sizes:
        chunks.append(seq[start : start + size])
        start += size
    return chunks


def _center_x(entry: Entry) -> float:
    return entry.xl + entry.xu


def _center_y(entry: Entry) -> float:
    return entry.yl + entry.yu
