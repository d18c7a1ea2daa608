"""Spatial partitioning for the shared-nothing serving tier.

The paper closes by naming the shared-nothing architecture — where "the
assignment of the data to the different disks is of special interest" —
as the step beyond its shared-virtual-memory model.  This module does
that assignment for the serving tier: it splits a dataset's space into
cells, assigns every cell to exactly one of *K* shards, and builds one
packed R-tree per shard over the objects that shard can see.

Two assignments coexist on purpose, and the distinction carries every
correctness argument downstream:

* **ownership** — every *point* of the data MBR belongs to exactly one
  shard (:meth:`PartitionMap.owner_of_point`), and every *object* is
  owned by exactly one shard (the owner of its MBR center).  Ownership
  is what makes join duplicate elimination exact: a cross-shard pair is
  reported only by the shard owning the pair's reference point.
* **replication** — a shard's tree stores every object whose MBR
  *overlaps* the shard's region (PBSM-style boundary replication).  A
  window or kNN query routed to the shards its geometry overlaps then
  never misses a qualifying object, because any object intersecting the
  query inside shard *s*'s region is stored in *s*.

Partitioning modes:

* ``grid`` — a uniform ``gx × gy`` grid with one cell per shard (the
  factorization closest to square), the classic static decomposition;
* ``zrange`` — a finer power-of-two grid whose cells are ordered by
  their Z-order (Morton) code and cut into *K* contiguous code runs of
  approximately equal **object count** (the balance heuristic): skewed
  data gets small hot cells and large sparse runs, the
  space-filling-curve range sharding of "Parallel In-Memory Evaluation
  of Spatial Joins" (PAPERS.md).

A :class:`PartitionMap` is a frozen value object of primitives, so it
pickles cheaply into forked worker pools and its routing decisions are
reproducible anywhere — the worker-side join kernel re-runs the same
ownership test the router used.

Set-up is columnar: fitting, :func:`partition_rows` and the per-shard
builds read one :class:`~repro.geometry.table.BoxTable` per dataset and
make no per-object ``Rect``.  The scalar ``cell_of_point`` /
``owner_of_point`` / ``shards_of_rect`` serve the router once per request
and are the rule the array kernel is tested against, row for row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Tuple

import numpy as np

from ..geometry.rect import Rect
from ..geometry.table import BoxTable
from ..rtree.flat import FlatRTree, serving_refusal
from ..rtree.query import require_count
from ..zorder.curve import interleave_array

__all__ = [
    "PartitionMap",
    "Partitioner",
    "ShardedDataset",
    "build_sharded",
    "partition_items",
    "partition_rows",
]

#: Least cell-grid side of ``zrange`` mode (a power of two: Morton codes
#: interleave whole bits), doubled until there are four cells a shard.
ZRANGE_CELLS = 16


def _near_square_factors(k: int) -> Tuple[int, int]:
    """``(gx, gy)`` with ``gx * gy == k`` and the ratio closest to 1."""
    best = (1, k)
    for gx in range(1, int(k**0.5) + 1):
        if k % gx == 0:
            best = (gx, k // gx)
    return best


@dataclass(frozen=True)
class PartitionMap:
    """The space → shard assignment: a cell grid plus a cell-owner table.

    ``owner[iy * gx + ix]`` is the shard owning cell ``(ix, iy)``.  Cell
    membership is half-open (``[x0 + ix*w, x0 + (ix+1)*w)``) with the
    last row/column closed, so the cells tile the data MBR exactly and
    every point has one owner; points outside the data MBR clamp to the
    nearest boundary cell, so routing never fails on out-of-range
    queries.
    """

    mode: str
    shards: int
    x0: float
    y0: float
    cell_w: float
    cell_h: float
    gx: int
    gy: int
    owner: Tuple[int, ...]

    # -- point / rect location -------------------------------------------------
    def cell_of_point(self, x: float, y: float) -> int:
        ix = min(max(int((x - self.x0) / self.cell_w), 0), self.gx - 1)
        iy = min(max(int((y - self.y0) / self.cell_h), 0), self.gy - 1)
        return iy * self.gx + ix

    def owner_of_point(self, x: float, y: float) -> int:
        return self.owner[self.cell_of_point(x, y)]

    def shards_of_rect(self, rect: Rect) -> frozenset:
        """Every shard owning a cell the (clamped) rectangle overlaps."""
        lo = self.cell_of_point(rect.xl, rect.yl)
        hi = self.cell_of_point(rect.xu, rect.yu)
        return frozenset(
            self.owner[iy * self.gx + ix]
            for iy in range(lo // self.gx, hi // self.gx + 1)
            for ix in range(lo % self.gx, hi % self.gx + 1)
        )

    # -- geometry of the decomposition ----------------------------------------
    def cell_rect(self, cell: int) -> Rect:
        ix, iy = cell % self.gx, cell // self.gx
        return Rect(
            self.x0 + ix * self.cell_w,
            self.y0 + iy * self.cell_h,
            self.x0 + (ix + 1) * self.cell_w,
            self.y0 + (iy + 1) * self.cell_h,
        )

    def shard_cells(self, shard: int) -> list[int]:
        return [c for c, s in enumerate(self.owner) if s == shard]

    def shard_region(self, shard: int) -> Rect:
        """The MBR of the shard's cells (exact for ``grid``, a bounding
        box over the Morton run for ``zrange``)."""
        return Rect.union_all(
            self.cell_rect(c) for c in self.shard_cells(shard)
        )

    def bounds(self) -> Rect:
        return Rect(
            self.x0,
            self.y0,
            self.x0 + self.gx * self.cell_w,
            self.y0 + self.gy * self.cell_h,
        )

    def __repr__(self) -> str:
        return (
            f"<PartitionMap {self.mode} shards={self.shards} "
            f"grid={self.gx}x{self.gy}>"
        )


class Partitioner:
    """Fits a :class:`PartitionMap` to a dataset.

    ``mode='grid'`` ignores the objects beyond their bounding box;
    ``mode='zrange'`` also counts objects per cell (by owned center) and
    balances the per-shard counts when cutting the Morton order.
    """

    def __init__(self, shards: int, mode: str = "grid"):
        require_count("shards", shards)
        if mode not in ("grid", "zrange"):
            raise ValueError(f"unknown partition mode {mode!r}")
        self.shards = shards
        self.mode = mode

    def fit(self, items) -> PartitionMap:
        """Fit to ``(oid, rect)`` pairs or a :class:`BoxTable`."""
        table = BoxTable.from_items(items)
        if not len(table):
            raise ValueError("cannot partition an empty dataset")
        bbox = table.bbox()
        # Degenerate extents (all objects on one line) still need cells
        # of positive size for the index arithmetic to divide by.
        width = max(bbox.xu - bbox.xl, 1e-9)
        height = max(bbox.yu - bbox.yl, 1e-9)
        if self.mode == "grid":
            gx, gy = _near_square_factors(self.shards)
            if (width < height) != (gx < gy):
                gx, gy = gy, gx
            owner = tuple(range(self.shards))
        else:
            gx = ZRANGE_CELLS
            while gx * gx < 4 * self.shards:
                gx *= 2
            gy = gx
            owner = (0,) * (gx * gy)  # every cell unowned until the cut
        grid = PartitionMap(
            mode=self.mode,
            shards=self.shards,
            x0=bbox.xl,
            y0=bbox.yl,
            cell_w=width / gx,
            cell_h=height / gy,
            gx=gx,
            gy=gy,
            owner=owner,
        )
        return grid if self.mode == "grid" else self._fit_zrange(table, grid)

    def _fit_zrange(self, table: BoxTable, grid: PartitionMap) -> PartitionMap:
        """*grid* with its cells dealt to the shards along the Morton order."""
        side = grid.gx
        bits = side.bit_length() - 1
        counts = np.bincount(
            _cells_of_points(grid, *table.centers()), minlength=side * side
        ).tolist()
        cells = np.arange(side * side)
        order = np.argsort(interleave_array(cells % side, cells // side, bits)).tolist()
        owner = [0] * (side * side)
        # Greedy equal-count cut of the Morton order: close shard s once
        # its run holds its proportional share of the objects — but never
        # leave fewer cells than remaining shards, so every shard owns at
        # least one cell and the cells still tile the space.
        total = len(table)
        shard, acc = 0, 0
        for position, cell in enumerate(order):
            remaining_cells = len(order) - position
            remaining_shards = self.shards - shard
            if (
                shard < self.shards - 1
                and position > 0
                and (
                    acc * self.shards >= total * (shard + 1)
                    or remaining_cells <= remaining_shards
                )
            ):
                shard += 1
            owner[cell] = shard
            acc += counts[cell]
        return replace(grid, owner=tuple(owner))


def _cells_of_points(pmap: PartitionMap, xs, ys):
    """:meth:`PartitionMap.cell_of_point` over coordinate arrays: truncate
    toward zero like ``int()``, and clamp while still in floats so no
    value is too large to cast."""
    ix = np.clip(np.trunc((xs - pmap.x0) / pmap.cell_w), 0, pmap.gx - 1)
    iy = np.clip(np.trunc((ys - pmap.y0) / pmap.cell_h), 0, pmap.gy - 1)
    return iy.astype(np.int64) * pmap.gx + ix.astype(np.int64)


def partition_rows(table: BoxTable, pmap: PartitionMap) -> tuple[list, list]:
    """``(owned, replicated)`` per-shard row-index arrays (ascending): the
    array form of ``owner_of_point`` / ``shards_of_rect``, row for row.

    ``owned[s]`` are the rows whose MBR center shard *s* owns; they
    partition the table.  ``replicated[s]`` are the rows overlapping shard
    *s*'s region — what its tree is built from; boundary rows are in several.
    """
    owner = np.asarray(pmap.owner, dtype=np.int64)
    owners = owner[_cells_of_points(pmap, *table.centers())]
    iy0, ix0 = np.divmod(_cells_of_points(pmap, table.xl, table.yl), pmap.gx)
    iy1, ix1 = np.divmod(_cells_of_points(pmap, table.xu, table.yu), pmap.gx)
    nx = ix1 - ix0 + 1
    # One entry per (row, overlapped cell): row r contributes the
    # spans[r] cells of its range, numbered row-major inside it.
    spans = nx * (iy1 - iy0 + 1)
    row = np.repeat(np.arange(len(table), dtype=np.int64), spans)
    within = np.arange(len(row), dtype=np.int64) - np.repeat(
        np.cumsum(spans) - spans, spans
    )
    dy, dx = np.divmod(within, nx[row])
    member = np.zeros((len(table), pmap.shards), dtype=bool)
    member[row, owner[(iy0[row] + dy) * pmap.gx + ix0[row] + dx]] = True
    return (
        [np.flatnonzero(owners == s) for s in range(pmap.shards)],
        [np.flatnonzero(member[:, s]) for s in range(pmap.shards)],
    )


def partition_items(items, pmap: PartitionMap) -> tuple[list, list]:
    """:func:`partition_rows` as per-shard ``(oid, rect)`` lists."""
    table = BoxTable.from_items(items)
    return tuple(
        [table.take(rows).items() for rows in per_shard]
        for per_shard in partition_rows(table, pmap)
    )


@dataclass(frozen=True)
class ShardedDataset:
    """K shard-local tree registries plus the routing geometry.

    ``trees[s]`` maps every tree name to shard *s*'s local tree (built
    over the replicated items).  ``content_mbrs[s][name]`` is the bbox of
    what the shard actually stores — ``None`` when it stores nothing —
    and is the bound the router intersects queries against: tighter than
    the shard's cell region, and safe because any object intersecting a
    query inside the region is stored here.
    """

    pmap: PartitionMap
    trees: Tuple[Mapping[str, object], ...]
    content_mbrs: Tuple[Mapping[str, Optional[Rect]], ...]
    counts: Tuple[Mapping[str, int], ...]

    @property
    def shards(self) -> int:
        return self.pmap.shards

    def tree_names(self) -> list[str]:
        return sorted(self.trees[0]) if self.trees else []

    def routed_shards(self, name: str, rect: Rect) -> list[int]:
        """Shards whose stored content for *name* can intersect *rect*."""
        out = []
        for shard in range(self.shards):
            mbr = self.content_mbrs[shard].get(name)
            if mbr is not None and mbr.intersects(rect):
                out.append(shard)
        return out

    def join_shards(
        self, name_r: str, name_s: str, window: Optional[Rect] = None
    ) -> list[int]:
        """Shards that can hold an intersecting (r, s) pair — both
        content boxes overlap each other (and the window, if any)."""
        out = []
        for shard in range(self.shards):
            mbr_r = self.content_mbrs[shard].get(name_r)
            mbr_s = self.content_mbrs[shard].get(name_s)
            if mbr_r is None or mbr_s is None:
                continue
            if not mbr_r.intersects(mbr_s):
                continue
            if window is not None and not (
                mbr_r.intersects(window) and mbr_s.intersects(window)
            ):
                continue
            out.append(shard)
        return out


def require_flat_backend(backend) -> None:
    """Refuse a ``backend`` other than ``"flat"``: the shards serve
    packed trees only."""
    if backend != "flat":
        raise serving_refusal(f"backend {backend!r}")


def build_sharded(
    datasets: Mapping[str, object],
    shards: int,
    *,
    mode: str = "grid",
    backend: str = "flat",
) -> ShardedDataset:
    """Partition every named dataset (``(oid, rect)`` pairs or a
    :class:`BoxTable`) with ONE shared map and build the per-shard trees:
    packed trees over the shard's rows of the shared table, copying none
    of it (an empty shard gets an empty one).

    A single :class:`PartitionMap` (fitted on the union of all datasets)
    covers every tree, so a join between two trees agrees with itself
    about which shard owns any reference point.  ``backend`` takes
    ``"flat"`` only, the one index the shards serve.
    """
    require_flat_backend(backend)
    if not datasets:
        raise ValueError("need at least one dataset")
    tables = {
        name: BoxTable.from_items(items) for name, items in datasets.items()
    }
    pmap = Partitioner(shards, mode).fit(
        BoxTable.concat(tables.values())
    )
    trees = [{} for _ in range(shards)]
    content_mbrs = [{} for _ in range(shards)]
    counts = [{} for _ in range(shards)]
    for name, table in tables.items():
        _, replicated = partition_rows(table, pmap)
        for shard, rows in enumerate(replicated):
            tree = trees[shard][name] = FlatRTree.build(table, rows=rows)
            content_mbrs[shard][name] = tree.mbr() if len(rows) else None
            counts[shard][name] = len(rows)
    return ShardedDataset(
        pmap=pmap,
        trees=tuple(trees),
        content_mbrs=tuple(content_mbrs),
        counts=tuple(counts),
    )
