"""The flat packed R-tree backend: struct-of-arrays + numpy kernels.

The pointer-based :class:`~repro.rtree.rstar.RStarTree` pays Python-object
overhead for every entry it touches; this module is the array-backed
alternative named by the roadmap.  A :class:`FlatRTree` is packed
bottom-up over a Z-order sort of the box centers (the curve machinery of
:mod:`repro.zorder.curve`), after which **all** boxes of **all** levels
live in four contiguous ``float64`` arrays (``xmin/ymin/xmax/ymax``) with
an offset array marking the level boundaries — the ``FlatRTree`` of
duckdb_spatial, in numpy.  Every hot kernel is then one broadcast over a
node's slice instead of a Python loop over its entries: numpy is our SIMD
("SIMD-ified R-tree Query Processing").

Layout
------
Level 0 holds the ``size`` data boxes in Z-order; level ``l`` holds one
box per node, each covering up to ``node_size`` consecutive boxes of
level ``l-1`` (node ``i`` covers ``[i*node_size, (i+1)*node_size)``).
The top level always has exactly one box, the root.  ``level_offsets[l]``
is the position of level ``l``'s first box in the global arrays, so the
slice of level ``l`` is ``level_offsets[l]:level_offsets[l+1]`` — the
level boundaries partition the arrays.

The class is the in-memory *execution* index:
:func:`repro.rtree.query.window_query`,
:func:`repro.rtree.query.nearest_neighbors`,
:func:`repro.query.batch.multi_window_query`, the sequential and forked
joins and the shard tier dispatch on it (:func:`is_flat`).  It has no
pages, so everything that measures page accesses — pagination, the
simulated LSR/GSRR/GD machine, Table 1 — takes the node R*-tree only
(:func:`require_node_trees`).  Because the arrays are plain module data,
a forked worker inherits the whole index by copy-on-write —
fork-inherits-arrays, where the service layer today fork-inherits-trees.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..geometry.rect import Rect
from ..geometry.rows import ColumnRows, RowSet, oid_column
from ..geometry.table import BoxTable
from ..zorder.curve import Quantizer, interleave_array
from .entry import Entry
from .query import QueryStats, oid_order_key

__all__ = [
    "FlatRTree",
    "EntryRows",
    "build_flat_tree",
    "is_flat",
    "require_node_trees",
    "window_rows",
    "knn_rows",
]

#: Default fan-out.  Wider nodes amortise numpy's per-call overhead but
#: make each node's MBR looser, which inflates the candidate crosses of
#: the join kernel; 16 is the measured sweet spot on the paper maps
#: (the join filter runs ~3x the plane sweep, k-NN at parity).
DEFAULT_NODE_SIZE = 16

#: Resolution of the Z-order sort grid (2^bits cells per axis).
DEFAULT_CURVE_BITS = 16


def is_flat(tree) -> bool:
    """True when *tree* is a flat packed backend instance."""
    return isinstance(tree, FlatRTree)


def require_node_trees(function: str, *trees) -> None:
    """Raise ``TypeError`` when a packed tree reaches *function*, one of
    the entry points that walk :class:`~repro.rtree.node.Node` pages."""
    if any(is_flat(tree) for tree in trees):
        raise TypeError(
            f"{function} walks the pages of a node R*-tree and was given a "
            "packed FlatRTree, which has none; packed trees are taken by "
            "window_query, nearest_neighbors, multi_window_query, "
            "sequential_join, multiprocessing_join / fault_tolerant_join "
            "and the shard tier"
        )


class FlatRTree:
    """A static packed R-tree over ``(oid, rect)`` items.

    Build with :meth:`build`; the tree is immutable afterwards (the
    dynamic workload item of the roadmap covers rebuild-merge updates).
    """

    __slots__ = (
        "node_size",
        "size",
        "oids",
        "xmin",
        "ymin",
        "xmax",
        "ymax",
        "level_offsets",
        "_counts",
    )

    def __init__(self):
        self.node_size = DEFAULT_NODE_SIZE
        self.size = 0
        #: The oids in Z-order as one column
        #: (:func:`~repro.geometry.rows.oid_column`): every answer gathers
        #: its rows from it.
        self.oids = oid_column(())
        self.xmin = np.empty(0, dtype=np.float64)
        self.ymin = np.empty(0, dtype=np.float64)
        self.xmax = np.empty(0, dtype=np.float64)
        self.ymax = np.empty(0, dtype=np.float64)
        self.level_offsets = np.zeros(1, dtype=np.int64)
        self._counts: list[int] = []

    # ------------------------------------------------------------- build
    @classmethod
    def build(
        cls,
        items,
        *,
        node_size: int = DEFAULT_NODE_SIZE,
        curve_bits: int = DEFAULT_CURVE_BITS,
    ) -> "FlatRTree":
        """Pack *items* — ``(oid, rect)`` pairs or a
        :class:`~repro.geometry.table.BoxTable` — bottom-up over a Z-order
        sort of box centers.

        Deterministic: equal Morton codes keep their input order (stable
        sort), so two builds over the same item sequence are identical.
        """
        if node_size < 2:
            raise ValueError("node_size must be at least 2")
        table = BoxTable.from_items(items)
        tree = cls()
        tree.node_size = node_size
        n = len(table)
        if n == 0:
            return tree
        tree.size = n

        quantizer = Quantizer(table.bbox(), curve_bits)
        ix, iy = quantizer.cells_of(*table.centers())
        order = np.argsort(interleave_array(ix, iy, curve_bits), kind="stable")

        level_xl = [table.xl[order]]
        level_yl = [table.yl[order]]
        level_xu = [table.xu[order]]
        level_yu = [table.yu[order]]
        tree.oids = table.oids[order]
        counts = [n]
        while counts[-1] > 1 or len(counts) == 1:
            starts = np.arange(0, counts[-1], node_size)
            level_xl.append(np.minimum.reduceat(level_xl[-1], starts))
            level_yl.append(np.minimum.reduceat(level_yl[-1], starts))
            level_xu.append(np.maximum.reduceat(level_xu[-1], starts))
            level_yu.append(np.maximum.reduceat(level_yu[-1], starts))
            counts.append(len(starts))

        tree.xmin = np.ascontiguousarray(np.concatenate(level_xl))
        tree.ymin = np.ascontiguousarray(np.concatenate(level_yl))
        tree.xmax = np.ascontiguousarray(np.concatenate(level_xu))
        tree.ymax = np.ascontiguousarray(np.concatenate(level_yu))
        tree.level_offsets = np.concatenate(
            ([0], np.cumsum(np.asarray(counts, dtype=np.int64)))
        )
        tree._counts = counts
        return tree

    # ------------------------------------------------------------ shape
    def __len__(self) -> int:
        return self.size

    @property
    def num_levels(self) -> int:
        """Number of levels including the data level (0 when empty)."""
        return len(self._counts)

    @property
    def height(self) -> int:
        """Height in node-tree terms (a root-only tree has height 1)."""
        return max(1, self.num_levels - 1)

    def child_range(self, level: int, index: int) -> tuple[int, int]:
        """``[start, stop)`` of node ``(level, index)``'s children within
        level ``level - 1``."""
        start = index * self.node_size
        return start, min(start + self.node_size, self._counts[level - 1])

    def mbr(self) -> Rect:
        """The root MBR (the whole dataset's bounding box)."""
        if self.size == 0:
            raise ValueError("empty tree has no MBR")
        root = int(self.level_offsets[-2])  # the top level's single box
        return Rect(
            self.xmin[root], self.ymin[root], self.xmax[root], self.ymax[root]
        )

    # ----------------------------------------------------- window query
    def window_indices(
        self, window, stats: Optional[QueryStats] = None
    ) -> np.ndarray:
        """Data-box indices (ascending) whose boxes intersect *window*.

        One broadcast intersection test per level: the frontier of
        qualifying nodes is narrowed top-down, all children of the whole
        frontier tested in a single vectorized comparison.
        """
        empty = np.empty(0, dtype=np.int64)
        if self.size == 0:
            return empty
        wxl, wyl, wxu, wyu = window.xl, window.yl, window.xu, window.yu
        frontier = np.zeros(1, dtype=np.int64)  # the root, at the top level
        for level in range(self.num_levels - 1, 0, -1):
            if stats is not None:
                if level == 1:
                    stats.leaf_nodes += len(frontier)
                else:
                    stats.directory_nodes += len(frontier)
            children, _ = self.children_of(level, frontier)
            if len(children) == 0:
                return empty
            base = self.level_offsets[level - 1]
            sel = base + children
            mask = (
                (self.xmin[sel] <= wxu)
                & (wxl <= self.xmax[sel])
                & (self.ymin[sel] <= wyu)
                & (wyl <= self.ymax[sel])
            )
            frontier = children[mask]
            if len(frontier) == 0:
                return empty
        return frontier

    def multi_window(self, windows: Sequence) -> list["EntryRows"]:
        """One answer per window (the batched-query backend hook).

        All windows descend the tree *together*: the frontier is a set of
        ``(window, node)`` pairs and every level is narrowed with a single
        vectorized intersection test across the whole batch, so numpy's
        per-call overhead is paid once per level instead of once per
        window per level.
        """
        m = len(windows)
        if m == 0:
            return []
        if self.size == 0:
            return [EntryRows(self, np.empty(0, dtype=np.int64)) for _ in windows]
        wxl = np.fromiter((w.xl for w in windows), np.float64, count=m)
        wyl = np.fromiter((w.yl for w in windows), np.float64, count=m)
        wxu = np.fromiter((w.xu for w in windows), np.float64, count=m)
        wyu = np.fromiter((w.yu for w in windows), np.float64, count=m)
        # Frontier: one (query, node) pair per surviving branch.  Queries
        # stay grouped and in order, so each window's hits come out in
        # ascending Z-order exactly like :meth:`window_indices`.
        qid = np.arange(m, dtype=np.int64)
        nodes = np.zeros(m, dtype=np.int64)
        for level in range(self.num_levels - 1, 0, -1):
            children, parent_pos = self.children_of(level, nodes)
            cq = qid[parent_pos]
            sel = self.level_offsets[level - 1] + children
            mask = (
                (self.xmin[sel] <= wxu[cq])
                & (wxl[cq] <= self.xmax[sel])
                & (self.ymin[sel] <= wyu[cq])
                & (wyl[cq] <= self.ymax[sel])
            )
            qid = cq[mask]
            nodes = children[mask]
        bounds = np.cumsum(np.bincount(qid, minlength=m))[:-1]
        return [EntryRows(self, rows) for rows in np.split(nodes, bounds)]

    def children_of(
        self, level: int, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated child indices (within level ``level-1``) of all
        *nodes*, plus the repeat-index mapping each child back to its
        parent's position in *nodes*.  An empty frontier yields two empty
        int64 arrays, so a batch whose every window missed keeps
        descending harmlessly."""
        starts = nodes * self.node_size
        counts = (
            np.minimum(starts + self.node_size, self._counts[level - 1]) - starts
        )
        total = int(counts.sum())
        parent_pos = np.repeat(np.arange(len(nodes), dtype=np.int64), counts)
        first = np.cumsum(counts) - counts  # exclusive prefix sum
        offsets = np.arange(total, dtype=np.int64) - np.repeat(first, counts)
        return starts[parent_pos] + offsets, parent_pos

    # ---------------------------------------------------------------- kNN
    def nearest(self, x: float, y: float, k: int = 1) -> "EntryRows":
        """The *k* data entries nearest to ``(x, y)``, with distances.

        Best-first search with vectorized per-node ``mindist``; result
        order is the backend-independent ``(distance, oid key)`` order of
        :func:`repro.rtree.query.nearest_neighbors` — ties at equal
        distance resolve identically on both backends.
        """
        import heapq
        import itertools

        if k < 1:
            raise ValueError("k must be at least 1")
        seq = itertools.count()
        # (distance, kind, tie, seq, level, index); nodes (kind 0) sort
        # before data entries (kind 1) at equal distance so a node that
        # may still contain a better-tied entry is always expanded first.
        top = self.num_levels - 1
        heap: list[tuple] = [(0.0, 0, 0, next(seq), top, 0)] if self.size else []
        rows: list[int] = []
        found: list[float] = []
        # Prune bound: the k-th smallest data-entry distance seen so far
        # (a size-k max-heap of negated distances).  Anything strictly
        # farther can never reach the result list, so it is never pushed;
        # equal distances stay in (ties resolve by oid key).
        worst: list[float] = []
        bound = float("inf")
        while heap and len(rows) < k:
            distance, kind, _tie, _seq, level, index = heapq.heappop(heap)
            if kind == 1:
                rows.append(index)
                found.append(distance)
                continue
            lo, hi = self.child_range(level, index)
            base = self.level_offsets[level - 1]
            sel = slice(base + lo, base + hi)
            dx = np.maximum(
                np.maximum(self.xmin[sel] - x, x - self.xmax[sel]), 0.0
            )
            dy = np.maximum(
                np.maximum(self.ymin[sel] - y, y - self.ymax[sel]), 0.0
            )
            # Same expression as the node backend's _min_distance (not
            # np.hypot, which rounds differently): distances must be
            # bit-identical across backends for ordered parity.  tolist()
            # hands back plain floats in one call, keeping the heap-push
            # loop free of numpy scalar boxing.
            dists = np.sqrt(dx * dx + dy * dy).tolist()
            if level == 1:
                oids = self.oids[lo:hi].tolist()  # builtin oids, like dists
                for offset, dist in enumerate(dists):
                    if dist > bound:
                        continue
                    tie = oid_order_key(oids[offset])
                    heapq.heappush(heap, (dist, 1, tie, next(seq), 0, lo + offset))
                    if len(worst) < k:
                        heapq.heappush(worst, -dist)
                        if len(worst) == k:
                            bound = -worst[0]
                    elif dist < bound:
                        heapq.heapreplace(worst, -dist)
                        bound = -worst[0]
            else:
                for offset, dist in enumerate(dists):
                    if dist > bound:
                        continue
                    child = lo + offset
                    heapq.heappush(
                        heap, (dist, 0, child, next(seq), level - 1, child)
                    )
        return EntryRows(
            self,
            np.array(rows, dtype=np.int64),
            np.array(found, dtype=np.float64),
        )

    # -------------------------------------------------------- validation
    def validate(self) -> None:
        """Check the packed structural invariants (tests and debugging)."""
        if self.size == 0:
            assert self.num_levels == 0 and len(self.xmin) == 0
            return
        assert self._counts[0] == self.size == len(self.oids)
        assert self._counts[-1] == 1, "top level must be the single root"
        assert int(self.level_offsets[-1]) == len(self.xmin)
        for level in range(1, self.num_levels):
            below = self._counts[level - 1]
            expected = -(-below // self.node_size)  # ceil division
            assert self._counts[level] == expected, (
                f"level {level} has {self._counts[level]} nodes, "
                f"expected ceil({below}/{self.node_size}) = {expected}"
            )
            base_child = self.level_offsets[level - 1]
            base = self.level_offsets[level]
            for i in range(self._counts[level]):
                lo, hi = self.child_range(level, i)
                sel = slice(base_child + lo, base_child + hi)
                assert self.xmin[base + i] == self.xmin[sel].min()
                assert self.ymin[base + i] == self.ymin[sel].min()
                assert self.xmax[base + i] == self.xmax[sel].max()
                assert self.ymax[base + i] == self.ymax[sel].max()

    def __repr__(self) -> str:
        return (
            f"<FlatRTree size={self.size} levels={self.num_levels} "
            f"node_size={self.node_size}>"
        )


class EntryRows(ColumnRows):
    """The data entries of a packed tree at *rows* (Z-order positions),
    with their distances for a kNN answer: what the public query
    functions return on this backend.  One :class:`Entry` — the node
    backend's result currency — is made per row when a caller iterates or
    indexes, and kept nowhere; ``oids`` / ``distances`` read the columns
    and make none."""

    __slots__ = ("tree",)

    def __init__(self, tree: FlatRTree, rows, distances=None):
        super().__init__(*((rows,) if distances is None else (rows, distances)))
        self.tree = tree

    def _like(self, *columns) -> "EntryRows":
        return EntryRows(self.tree, *columns)

    @property
    def oids(self) -> np.ndarray:
        return self.tree.oids[self._columns[0]]

    @property
    def distances(self):
        return self._columns[1] if len(self._columns) > 1 else None

    def _rows(self) -> list:
        tree, rows = self.tree, self._columns[0]
        boxes = (tree.xmin, tree.ymin, tree.xmax, tree.ymax)  # level 0 first
        columns = (column[rows].tolist() for column in boxes)
        entries = [
            Entry(xl, yl, xu, yu, oid=oid)
            for xl, yl, xu, yu, oid in zip(*columns, self.oids.tolist())
        ]
        if self.distances is None:
            return entries
        return list(zip(self.distances.tolist(), entries))

    def __reduce__(self):
        return list, (self._rows(),)  # entries travel; the tree never does


def window_rows(found) -> RowSet:
    """A window answer of either backend as its oid column; a packed
    tree's answer makes no :class:`Entry` on the way."""
    if isinstance(found, EntryRows):
        return RowSet(found.oids)
    return RowSet.from_oids([entry.oid for entry in found])


def knn_rows(found) -> RowSet:
    """A kNN answer of either backend as ``(distance, oid)`` columns."""
    if isinstance(found, EntryRows):
        return RowSet(found.oids, found.distances)
    return RowSet.from_knn((distance, entry.oid) for distance, entry in found)


def build_flat_tree(map_data, *, node_size: int = DEFAULT_NODE_SIZE) -> FlatRTree:
    """Pack a generated map (:class:`repro.datagen.MapData`) — the flat
    twin of :func:`repro.datagen.build_tree`."""
    return FlatRTree.build(map_data.table(), node_size=node_size)
