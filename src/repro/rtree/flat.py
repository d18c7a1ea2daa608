"""The flat packed R-tree backend: struct-of-arrays + numpy kernels.

The pointer-based :class:`~repro.rtree.rstar.RStarTree` pays Python-object
overhead for every entry it touches; this module is the array-backed
alternative named by the roadmap.  A :class:`FlatRTree` is packed
bottom-up over a Z-order sort of the box centers (the curve machinery of
:mod:`repro.zorder.curve`).  It is an index *over* a
:class:`~repro.geometry.table.BoxTable`: the data level is one ``rows``
column into that table, and only the directory boxes live in four
contiguous ``float64`` arrays (``xmin/ymin/xmax/ymax``) with an offset
array marking the level boundaries — the ``FlatRTree`` of duckdb_spatial,
whose leaves hold ``rows`` too, in numpy.  Every hot kernel is then one
broadcast over a node's slice instead of a Python loop over its entries:
numpy is our SIMD ("SIMD-ified R-tree Query Processing").

Layout
------
Level 0 is the ``size`` data boxes in Z-order: box ``i`` is table row
``rows[i]``, read from the table and never copied.  Level ``l >= 1``
holds one box per node, each covering up to ``node_size`` consecutive
boxes of level ``l-1`` (node ``i`` covers ``[i*node_size,
(i+1)*node_size)``).  The top level always has exactly one box, the root.
``level_offsets[l]`` is the position of level ``l``'s first box in the
directory arrays, so the slice of level ``l`` is
``level_offsets[l]:level_offsets[l+1]``; level 0's slice is empty
(``level_offsets[0] == level_offsets[1] == 0``).  :meth:`FlatRTree.boxes`
reads any level's boxes either way.

The class is the in-memory *execution* index:
:func:`repro.rtree.query.window_query`,
:func:`repro.rtree.query.nearest_neighbors`,
:func:`repro.query.batch.multi_window_query`, the sequential and forked
joins and the shard tier dispatch on it (:func:`is_flat`).  It has no
pages, so everything that measures page accesses — pagination, the
simulated LSR/GSRR/GD machine, Table 1 — takes the node R*-tree only
(:func:`require_node_trees`).  Because the arrays are plain module data,
a forked worker inherits the whole index, table included, by
copy-on-write — fork-inherits-arrays.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..geometry.rect import Rect
from ..geometry.rows import ColumnRows, RowSet
from ..geometry.table import BoxTable, bounding_box, box_centers
from ..zorder.curve import Quantizer, interleave_array
from .entry import Entry
from .query import QueryStats, require_k

__all__ = [
    "FlatRTree",
    "EntryRows",
    "build_flat_tree",
    "is_flat",
    "require_node_trees",
    "window_rows",
    "knn_rows",
    "serving_refusal",
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


def serving_refusal(subject: str) -> ValueError:
    """The one error of a serving tier handed anything but a packed tree;
    *subject* names the refused tree (or ``backend`` value)."""
    return ValueError(
        f"{subject}: the serving and shard tiers serve packed FlatRTree "
        "trees only; build one with build_flat_tree (a BoxTable: "
        "FlatRTree.build)"
    )


#: How a parent box reduces its children's ``xl, yl, xu, yu`` columns.
_REDUCE = (np.minimum, np.minimum, np.maximum, np.maximum)


class FlatRTree:
    """A static packed R-tree over the rows of a
    :class:`~repro.geometry.table.BoxTable`.

    Build with :meth:`build`; the tree is immutable afterwards (the
    dynamic workload item of the roadmap covers rebuild-merge updates).
    """

    __slots__ = (
        "node_size",
        "size",
        "table",
        "rows",
        "xmin",
        "ymin",
        "xmax",
        "ymax",
        "level_offsets",
        "_counts",
        "_levels",
    )

    def __init__(self, table: BoxTable):
        self.node_size = DEFAULT_NODE_SIZE
        self.size = 0
        #: The indexed map, shared and read-only: every leaf box and every
        #: oid an answer carries is read from it.
        self.table = table
        #: Z-order position -> table row: the data level, by reference.
        self.rows = np.empty(0, dtype=np.intp)
        self.xmin = np.empty(0, dtype=np.float64)
        self.ymin = np.empty(0, dtype=np.float64)
        self.xmax = np.empty(0, dtype=np.float64)
        self.ymax = np.empty(0, dtype=np.float64)
        self.level_offsets = np.zeros(1, dtype=np.int64)
        self._counts: list[int] = []
        #: Per level, the four columns :meth:`boxes` indexes: the table's
        #: for level 0, views of the directory arrays above it.
        self._levels = [(table.xl, table.yl, table.xu, table.yu)]

    # ------------------------------------------------------------- build
    @classmethod
    def build(
        cls,
        items,
        *,
        rows=None,
        node_size: int = DEFAULT_NODE_SIZE,
        curve_bits: int = DEFAULT_CURVE_BITS,
    ) -> "FlatRTree":
        """Pack *items* — ``(oid, rect)`` pairs or a
        :class:`~repro.geometry.table.BoxTable` — bottom-up over a Z-order
        sort of box centers.  With *rows* (table row indices) the tree
        indexes only those rows of the table: a shard's tree over the
        shared map, which copies none of it.

        Deterministic: equal Morton codes keep their input order (stable
        sort), so two builds over the same rows are identical.
        """
        if node_size < 2:
            raise ValueError("node_size must be at least 2")
        tree = cls(BoxTable.from_items(items))
        tree.node_size = node_size
        leaf = tree._levels[0]
        if rows is not None:
            rows = np.asarray(rows, dtype=np.intp)
            leaf = [column[rows] for column in leaf]
        n = len(leaf[0])
        if n == 0:
            return tree
        tree.size = n

        quantizer = Quantizer(bounding_box(*leaf), curve_bits)
        ix, iy = quantizer.cells_of(*box_centers(*leaf))
        order = np.argsort(interleave_array(ix, iy, curve_bits), kind="stable")
        tree.rows = order if rows is None else rows[order]

        # Each Z-ordered leaf column lives only as long as its reduction.
        starts = np.arange(0, n, node_size)
        level = [op.reduceat(c[order], starts) for op, c in zip(_REDUCE, leaf)]
        levels, counts = [level], [n, len(starts)]
        while counts[-1] > 1:
            starts = np.arange(0, counts[-1], node_size)
            level = [op.reduceat(c, starts) for op, c in zip(_REDUCE, level)]
            levels.append(level)
            counts.append(len(starts))

        tree.xmin, tree.ymin, tree.xmax, tree.ymax = (
            np.concatenate(columns) for columns in zip(*levels)
        )
        tree.level_offsets = np.concatenate(([0, 0], np.cumsum(counts[1:])))
        tree._counts = counts
        bounds = tree.level_offsets.tolist()
        tree._levels += [
            tuple(c[lo:hi] for c in (tree.xmin, tree.ymin, tree.xmax, tree.ymax))
            for lo, hi in zip(bounds[1:], bounds[2:])
        ]
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

    def locate(self, level: int, index) -> tuple:
        """Where *level*'s boxes at *index* (an index array, a slice or one
        position) live: ``(columns, at)``, the four ``xl, yl, xu, yu``
        columns and the positions to read them at.  A directory level's
        columns are its own arrays; the data level's are the table's, read
        through ``rows``."""
        if level == 0:
            return self._levels[0], self.rows[index]
        return self._levels[level], index

    def boxes(self, level: int, index) -> list:
        """The ``[xl, yl, xu, yu]`` of *level*'s boxes at *index*."""
        columns, at = self.locate(level, index)
        return [column[at] for column in columns]

    def mbr(self) -> Rect:
        """The root MBR (the whole dataset's bounding box)."""
        if self.size == 0:
            raise ValueError("empty tree has no MBR")
        return Rect(*self.boxes(self.num_levels - 1, 0))  # the single root

    # ----------------------------------------------------- window query
    def window_indices(
        self, window, stats: Optional[QueryStats] = None
    ) -> np.ndarray:
        """Table rows, in Z-order, of the boxes that intersect *window*.

        One broadcast intersection test per level: the frontier of
        qualifying nodes is narrowed top-down, all children of the whole
        frontier tested in a single vectorized comparison.
        """
        empty = np.empty(0, dtype=np.intp)
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
            columns, at = self.locate(level - 1, children)
            xl, yl, xu, yu = (column[at] for column in columns)
            mask = (xl <= wxu) & (wxl <= xu) & (yl <= wyu) & (wyl <= yu)
            frontier = at[mask]  # table rows once the data level is read
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
            return [EntryRows(self.table, np.empty(0, dtype=np.intp)) for _ in windows]
        wxl = np.fromiter((w.xl for w in windows), np.float64, count=m)
        wyl = np.fromiter((w.yl for w in windows), np.float64, count=m)
        wxu = np.fromiter((w.xu for w in windows), np.float64, count=m)
        wyu = np.fromiter((w.yu for w in windows), np.float64, count=m)
        # Frontier: one (query, node) pair per surviving branch.  Queries
        # stay grouped and in order, so each window's hits come out in
        # Z-order exactly like :meth:`window_indices`.
        qid = np.arange(m, dtype=np.int64)
        nodes = np.zeros(m, dtype=np.int64)
        for level in range(self.num_levels - 1, 0, -1):
            children, parent_pos = self.children_of(level, nodes)
            cq = qid[parent_pos]
            columns, at = self.locate(level - 1, children)
            xl, yl, xu, yu = (column[at] for column in columns)
            mask = (
                (xl <= wxu[cq]) & (wxl[cq] <= xu) & (yl <= wyu[cq]) & (wyl[cq] <= yu)
            )
            qid = cq[mask]
            nodes = at[mask]
        bounds = np.cumsum(np.bincount(qid, minlength=m))[:-1]
        return [EntryRows(self.table, rows) for rows in np.split(nodes, bounds)]

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
        order is the backend-independent ``(distance, oid)`` order of
        :func:`repro.rtree.query.nearest_neighbors` — ties at equal
        distance resolve identically on both backends.
        """
        import heapq
        import itertools

        require_k(k)
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
        # equal distances stay in (ties go to the smaller oid).
        worst: list[float] = []
        bound = float("inf")
        while heap and len(rows) < k:
            distance, kind, _tie, _seq, level, index = heapq.heappop(heap)
            if kind == 1:
                rows.append(index)
                found.append(distance)
                continue
            lo, hi = self.child_range(level, index)
            columns, at = self.locate(level - 1, slice(lo, hi))
            xl, yl, xu, yu = (column[at] for column in columns)
            dx = np.maximum(np.maximum(xl - x, x - xu), 0.0)
            dy = np.maximum(np.maximum(yl - y, y - yu), 0.0)
            # Same expression as the node backend's _min_distance (not
            # np.hypot, which rounds differently): distances must be
            # bit-identical across backends for ordered parity.  tolist()
            # hands back plain floats in one call, keeping the heap-push
            # loop free of numpy scalar boxing.
            dists = np.sqrt(dx * dx + dy * dy).tolist()
            if level == 1:  # at: the children's table rows
                oids = self.table.oids[at].tolist()  # builtin oids, like dists
                for row, oid, dist in zip(at.tolist(), oids, dists):
                    if dist > bound:
                        continue
                    heapq.heappush(heap, (dist, 1, oid, next(seq), 0, row))
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
            self.table,
            np.array(rows, dtype=np.intp),
            np.array(found, dtype=np.float64),
        )

    # -------------------------------------------------------- validation
    def validate(self) -> None:
        """Check the packed structural invariants (tests and debugging)."""
        if self.size == 0:
            assert self.num_levels == 0 and len(self.xmin) == len(self.rows) == 0
            return
        assert self._counts[0] == self.size == len(self.rows)
        assert self.rows.dtype == np.intp
        # rows index distinct rows of the table (all of them for a map build)
        assert 0 <= self.rows.min() and self.rows.max() < len(self.table)
        assert len(np.unique(self.rows)) == self.size
        assert self._counts[-1] == 1, "top level must be the single root"
        offsets = self.level_offsets.tolist()
        assert offsets[:2] == [0, 0] and offsets[-1] == len(self.xmin)
        for level in range(1, self.num_levels):
            below = self._counts[level - 1]
            expected = -(-below // self.node_size)  # ceil division
            assert self._counts[level] == expected, (
                f"level {level} has {self._counts[level]} nodes, "
                f"expected ceil({below}/{self.node_size}) = {expected}"
            )
            assert offsets[level + 1] - offsets[level] == expected
            # each box is exactly its children's MBR; level 1's children
            # are table rows read through ``rows``
            for i in range(expected):
                lo, hi = self.child_range(level, i)
                box = self.boxes(level, i)
                children = self.boxes(level - 1, slice(lo, hi))
                assert box[:2] == [column.min() for column in children[:2]]
                assert box[2:] == [column.max() for column in children[2:]]

    def __repr__(self) -> str:
        return (
            f"<FlatRTree size={self.size} levels={self.num_levels} "
            f"node_size={self.node_size}>"
        )


class EntryRows(ColumnRows):
    """The data entries at *rows* of a packed tree's table, with their
    distances for a kNN answer: what the public query functions return on
    this backend.  One :class:`Entry` — the node backend's result
    currency — is made per row when a caller iterates or indexes, and kept
    nowhere; ``oids`` / ``distances`` read the columns and make none."""

    __slots__ = ("table",)

    def __init__(self, table: BoxTable, rows, distances=None):
        super().__init__(*((rows,) if distances is None else (rows, distances)))
        self.table = table

    def _like(self, *columns) -> "EntryRows":
        return EntryRows(self.table, *columns)

    @property
    def oids(self) -> np.ndarray:
        return self.table.oids[self._columns[0]]

    @property
    def distances(self):
        return self._columns[1] if len(self._columns) > 1 else None

    def _rows(self) -> list:
        table, rows = self.table, self._columns[0]
        boxes = (table.xl, table.yl, table.xu, table.yu)
        columns = (column[rows].tolist() for column in boxes)
        entries = [
            Entry(xl, yl, xu, yu, oid=oid)
            for xl, yl, xu, yu, oid in zip(*columns, self.oids.tolist())
        ]
        if self.distances is None:
            return entries
        return list(zip(self.distances.tolist(), entries))

    def __reduce__(self):
        return list, (self._rows(),)  # entries travel; the table never does


def window_rows(found: EntryRows) -> RowSet:
    """A packed tree's window answer as its oid column, made without one
    :class:`Entry`."""
    return RowSet(found.oids)


def knn_rows(found: EntryRows) -> RowSet:
    """A packed tree's kNN answer as ``(distance, oid)`` columns."""
    return RowSet(found.oids, found.distances)


def build_flat_tree(map_data, *, node_size: int = DEFAULT_NODE_SIZE) -> FlatRTree:
    """Pack a generated map (:class:`repro.datagen.MapData`) — the flat
    twin of :func:`repro.datagen.build_tree`."""
    return FlatRTree.build(map_data.table(), node_size=node_size)
