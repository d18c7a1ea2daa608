"""The R*-tree [BKSS 90] — the access method underlying the spatial join.

Implements the full dynamic R*-tree:

* **ChooseSubtree** — minimum *overlap* enlargement when the children are
  leaves, minimum *area* enlargement above (ties: area enlargement, then
  area);
* **forced reinsertion** — on the first overflow of a level per insertion,
  the 30 % of entries farthest from the node's MBR center are removed and
  reinserted ("close reinsert": nearest first), which redistributes load
  and defers splits;
* **split** — axis chosen by minimum margin sum over all legal
  distributions, split index by minimum overlap (ties: minimum area);
* deletion with tree condensation and orphan reinsertion.

Window and kNN queries are :mod:`repro.rtree.query`'s, one traversal for
both backends.

Node capacities derive from the paper's page layout (section 4.1): 4 KB
pages hold up to 102 directory or 26 data entries; the minimum fill is
40 % of the capacity as recommended in [BKSS 90].
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ..geometry.rect import Rect
from ..geometry.table import BoxTable, require_box
from ..storage.page import DEFAULT_STORAGE, StorageParams
from .entry import Entry
from .node import Node

__all__ = ["RStarTree"]


class RStarTree:
    """A dynamic R*-tree over 2D rectangles.

    Parameters
    ----------
    storage:
        Page layout determining node capacities; defaults to the paper's
        4 KB / 40 B / 156 B layout (102 directory, 26 data entries).
    dir_capacity, data_capacity:
        Explicit capacity overrides (useful for small test trees); when
        given they take precedence over *storage*.
    min_fill:
        Minimum node fill as a fraction of capacity (0.4 in [BKSS 90]).
    reinsert_fraction:
        Share of entries evicted by forced reinsertion (0.3 in [BKSS 90]).
    """

    def __init__(
        self,
        storage: Optional[StorageParams] = None,
        *,
        dir_capacity: Optional[int] = None,
        data_capacity: Optional[int] = None,
        min_fill: float = 0.4,
        reinsert_fraction: float = 0.3,
    ):
        layout = storage or DEFAULT_STORAGE
        self.dir_capacity = dir_capacity if dir_capacity is not None else layout.dir_capacity
        self.data_capacity = (
            data_capacity if data_capacity is not None else layout.data_capacity
        )
        if self.dir_capacity < 4 or self.data_capacity < 4:
            raise ValueError("node capacities below 4 make splits degenerate")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError("min_fill must be in (0, 0.5]")
        self.min_dir = max(2, int(self.dir_capacity * min_fill))
        self.min_data = max(2, int(self.data_capacity * min_fill))
        self.reinsert_fraction = reinsert_fraction
        self.root = Node(0)
        self.height = 1
        self.size = 0
        self._reinserting_levels: set[int] = set()

    # ------------------------------------------------------------------ basic
    def __len__(self) -> int:
        return self.size

    def capacity_of(self, node: Node) -> int:
        return self.data_capacity if node.is_leaf else self.dir_capacity

    def min_fill_of(self, node: Node) -> int:
        return self.min_data if node.is_leaf else self.min_dir

    # ----------------------------------------------------------------- insert
    def insert(self, oid: int, rect: Rect) -> None:
        """Insert an object identified by *oid* with MBR *rect*; a
        non-finite or inverted box is refused as :class:`BoxTable` refuses
        it."""
        require_box(oid, rect)
        entry = Entry.for_object(rect, oid)
        self._reinserting_levels = set()
        self._insert_entry(entry, 0)
        self.size += 1

    def _insert_entry(self, entry: Entry, level: int) -> None:
        """Place *entry* into a node of *level* (0 = leaf), handling
        overflow by forced reinsertion or splitting."""
        path: list[tuple[Node, int]] = []
        node = self.root
        while node.level > level:
            index = self._choose_subtree(node, entry)
            parent_entry = node.entries[index]
            parent_entry.extend(entry)
            path.append((node, index))
            node = parent_entry.child
        if level:
            node.entries.append(entry)
        else:
            node.append(entry)
        self._handle_overflow(node, path)

    def _handle_overflow(self, node: Node, path: list[tuple[Node, int]]) -> None:
        while len(node) > self.capacity_of(node):
            if path and node.level not in self._reinserting_levels:
                self._reinserting_levels.add(node.level)
                self._forced_reinsert(node, path)
                return
            sibling = self._split(node)
            if not path:
                old_root = node
                new_root = Node(node.level + 1)
                new_root.entries.append(Entry.for_child(old_root))
                new_root.entries.append(Entry.for_child(sibling))
                self.root = new_root
                self.height += 1
                return
            parent, index = path.pop()
            xl, yl, xu, yu = node.mbr_tuple()
            parent.entries[index].set_mbr(xl, yl, xu, yu)
            parent.entries.append(Entry.for_child(sibling))
            node = parent

    # -------------------------------------------------------- choose subtree
    def _choose_subtree(self, node: Node, entry: Entry) -> int:
        entries = node.entries
        if node.level == 1:
            return self._choose_min_overlap(entries, entry)
        best_index = 0
        best_enlargement = float("inf")
        best_area = float("inf")
        for index, candidate in enumerate(entries):
            enlargement = candidate.enlargement(entry)
            if enlargement < best_enlargement or (
                enlargement == best_enlargement and candidate.area() < best_area
            ):
                best_index = index
                best_enlargement = enlargement
                best_area = candidate.area()
        return best_index

    @staticmethod
    def _choose_min_overlap(entries: list[Entry], entry: Entry) -> int:
        """[BKSS 90] leaf-level rule: minimise the growth of the overlap
        with the sibling entries (ties: area enlargement, then area).

        One array pass over every (candidate, sibling) pair.  Each
        candidate's overlap growth is summed sibling by sibling, left to
        right, as ``+grown - current`` (``np.cumsum`` accumulates in
        order), so it is the same float as a scalar loop's; the stable
        ``np.lexsort`` lets the first index win a tie."""
        box = np.array([(e.xl, e.yl, e.xu, e.yu) for e in entries])
        xl, yl, xu, yu = box.T
        nxl = np.minimum(xl, entry.xl)
        nyl = np.minimum(yl, entry.yl)
        nxu = np.maximum(xu, entry.xu)
        nyu = np.maximum(yu, entry.yu)

        def overlaps(cxl, cyl, cxu, cyu):
            # [i, j]: overlap of candidate box i with sibling j (0 if none)
            w = np.minimum(cxu[:, None], xu) - np.maximum(cxl[:, None], xl)
            h = np.minimum(cyu[:, None], yu) - np.maximum(cyl[:, None], yl)
            area = w * h
            area[(w <= 0.0) | (h <= 0.0)] = 0.0
            np.fill_diagonal(area, 0.0)
            return area

        n = len(entries)
        terms = np.empty((n, 2 * n))
        terms[:, 0::2] = overlaps(nxl, nyl, nxu, nyu)
        terms[:, 1::2] = -overlaps(xl, yl, xu, yu)
        delta = np.cumsum(terms, axis=1)[:, -1]
        area = (xu - xl) * (yu - yl)
        enlargement = (nxu - nxl) * (nyu - nyl) - area
        return int(np.lexsort((area, enlargement, delta))[0])

    # ------------------------------------------------------ forced reinsert
    def _forced_reinsert(self, node: Node, path: list[tuple[Node, int]]) -> None:
        xl, yl, xu, yu = node.mbr_tuple()
        cx = (xl + xu) / 2.0
        cy = (yl + yu) / 2.0

        def distance(e: Entry) -> float:
            ex, ey = e.center()
            dx = ex - cx
            dy = ey - cy
            return dx * dx + dy * dy

        ordered = sorted(_slots(node), key=distance)
        count = max(1, round(self.reinsert_fraction * self.capacity_of(node)))
        node.set_entries(ordered[:-count])
        removed = ordered[-count:]
        self._tighten_path(node, path)
        # Close reinsert: nearest entries first.
        for entry in removed:
            self._insert_entry(entry, node.level)

    def _tighten_path(self, node: Node, path: list[tuple[Node, int]]) -> None:
        """Recompute exact MBRs for *node*'s ancestors along *path*."""
        child = node
        for parent, index in reversed(path):
            xl, yl, xu, yu = child.mbr_tuple()
            parent.entries[index].set_mbr(xl, yl, xu, yu)
            child = parent

    # ------------------------------------------------------------------ split
    def _split(self, node: Node) -> Node:
        """Split an overfull node in place; returns the new sibling."""
        entries = _slots(node)
        m = self.min_fill_of(node)
        # -- choose split axis: minimum total margin over all distributions.
        best_axis_candidates = None
        best_margin = float("inf")
        for sort_keys in (
            (_key_xl, _key_xu),  # x axis
            (_key_yl, _key_yu),  # y axis
        ):
            margin_total = 0.0
            candidates = []
            for key in sort_keys:
                ordered = sorted(entries, key=key)
                prefix, suffix = _bound_sweeps(ordered)
                for k in range(m, len(ordered) - m + 1):
                    b1 = prefix[k - 1]
                    b2 = suffix[k]
                    margin_total += _margin(b1) + _margin(b2)
                    candidates.append((ordered, k, b1, b2))
            if margin_total < best_margin:
                best_margin = margin_total
                best_axis_candidates = candidates
        # -- choose split index: minimum overlap, ties by minimum area.
        best = None
        best_key = (float("inf"), float("inf"))
        for ordered, k, b1, b2 in best_axis_candidates:
            key = (_overlap(b1, b2), _area(b1) + _area(b2))
            if key < best_key:
                best_key = key
                best = (ordered, k)
        ordered, k = best
        node.set_entries(ordered[:k])
        return Node(node.level, ordered[k:])

    # ----------------------------------------------------------------- delete
    def delete(self, oid: int, rect: Rect) -> bool:
        """Remove the data entry with the given oid and MBR.

        Returns True when found.  Underfull nodes along the deletion path
        are dissolved and their entries reinserted (tree condensation).  A
        box no insert can have stored is refused, not searched for.
        """
        require_box(oid, rect)
        found = self._find_leaf(self.root, oid, rect, [])
        if found is None:
            return False
        path, leaf, entry_index = found
        rows = leaf.order[leaf.lo : leaf.hi]
        leaf.set_table(leaf.table.take(np.delete(rows, entry_index)))
        self.size -= 1
        self._condense(leaf, path)
        return True

    def _find_leaf(
        self,
        node: Node,
        oid: int,
        rect: Rect,
        path: list[tuple[Node, int]],
    ) -> Optional[tuple[list[tuple[Node, int]], Node, int]]:
        if node.is_leaf:
            for index, (xl, yl, xu, yu, row_oid) in enumerate(node.rows()):
                if (
                    row_oid == oid
                    and xl == rect.xl
                    and yl == rect.yl
                    and xu == rect.xu
                    and yu == rect.yu
                ):
                    return (list(path), node, index)
            return None
        for index, entry in enumerate(node.entries):
            if entry.intersects(rect):
                path.append((node, index))
                found = self._find_leaf(entry.child, oid, rect, path)
                if found is not None:
                    return found
                path.pop()
        return None

    def _condense(self, node: Node, path: list[tuple[Node, int]]) -> None:
        orphans: list[tuple[Entry, int]] = []
        while path:
            parent, index = path.pop()
            if len(node) < self.min_fill_of(node):
                del parent.entries[index]
                orphans.extend((entry, node.level) for entry in _slots(node))
            else:
                xl, yl, xu, yu = node.mbr_tuple()
                parent.entries[index].set_mbr(xl, yl, xu, yu)
            node = parent
        for entry, level in orphans:
            self._reinserting_levels = set()
            self._insert_entry(entry, level)
        # Shrink the tree when the root holds a single directory entry.
        while not self.root.is_leaf and len(self.root.entries) == 1:
            self.root = self.root.entries[0].child
            self.height -= 1
        if not self.root.is_leaf and not self.root.entries:
            # Everything was deleted.
            self.root = Node(0)
            self.height = 1

    # -------------------------------------------------------------- traversal
    def nodes(self) -> Iterator[Node]:
        """All nodes, breadth-first from the root."""
        frontier = [self.root]
        while frontier:
            next_frontier: list[Node] = []
            for node in frontier:
                yield node
                if not node.is_leaf:
                    next_frontier.extend(node.children())
            frontier = next_frontier

    def data_entries(self) -> Iterator[Entry]:
        """Every data entry, leaf by leaf, as a fresh :class:`Entry`."""
        for node in self.nodes():
            if node.is_leaf:
                yield from node.data_entries()

    def mbr(self) -> Rect:
        xl, yl, xu, yu = self.root.mbr_tuple()
        return Rect(xl, yl, xu, yu)

    # --------------------------------------------------------------- validate
    def validate(self) -> None:
        """Check all R*-tree invariants; raises AssertionError on violation.

        * every node's parent entry MBR equals the node's exact MBR,
        * entry counts are within [min_fill, capacity] (except the root),
        * all leaves are at level 0 and depth is uniform,
        * node levels decrease by exactly one per tree edge,
        * ``size`` equals the number of data entries,
        * leaves that share a permutation read disjoint ranges of it.
        """
        counted = self._validate_node(self.root, self.root.level, is_root=True)
        assert counted == self.size, f"size {self.size} but {counted} data entries"
        assert self.height == self.root.level + 1, "height/root level mismatch"
        ranges: dict[int, list[tuple[int, int]]] = {}
        for node in self.nodes():
            if node.is_leaf:
                ranges.setdefault(id(node.order), []).append((node.lo, node.hi))
        for spans in ranges.values():
            spans.sort()
            for (_, hi), (lo, _) in zip(spans, spans[1:]):
                assert hi <= lo, "two leaves share rows of one permutation"

    def _validate_node(self, node: Node, expected_level: int, is_root: bool) -> int:
        assert node.level == expected_level, "level mismatch on edge"
        capacity = self.capacity_of(node)
        assert len(node) <= capacity, "node over capacity"
        if is_root:
            if not node.is_leaf:
                assert len(node) >= 2, "directory root needs >= 2 entries"
        else:
            assert len(node) >= self.min_fill_of(node), "node underfull"
        if node.is_leaf:
            assert isinstance(node.table, BoxTable), "leaf rows of a BoxTable"
            assert node.order.dtype == np.int64, "leaf order dtype"
            assert 0 <= node.lo <= node.hi <= len(node.order), "leaf row range"
            rows = node.order[node.lo : node.hi]
            assert ((rows >= 0) & (rows < len(node.table))).all(), "row outside table"
            if len(node):
                xl, yl, xu, yu = node.boxes.tolist()
                assert node.mbr == (min(xl), min(yl), max(xu), max(yu)), "leaf MBR"
            return len(node)
        count = 0
        for entry in node.entries:
            assert not entry.is_data, "data entry in directory node"
            child = entry.child
            xl, yl, xu, yu = child.mbr_tuple()
            assert (entry.xl, entry.yl, entry.xu, entry.yu) == (xl, yl, xu, yu), (
                "parent entry MBR is not the exact child MBR"
            )
            count += self._validate_node(child, expected_level - 1, is_root=False)
        return count

    def __repr__(self) -> str:
        return (
            f"<RStarTree size={self.size} height={self.height} "
            f"caps=({self.dir_capacity},{self.data_capacity})>"
        )


def _slots(node: Node) -> list[Entry]:
    """*node*'s entries as a list: a directory node's own, a leaf's made
    for the one update that is changing it."""
    return node.entries if node.level else node.data_entries()


# -- split helpers -----------------------------------------------------------


def _key_xl(entry: Entry) -> float:
    return entry.xl


def _key_xu(entry: Entry) -> float:
    return entry.xu


def _key_yl(entry: Entry) -> float:
    return entry.yl


def _key_yu(entry: Entry) -> float:
    return entry.yu


def _bound_sweeps(
    ordered: list[Entry],
) -> tuple[list[tuple[float, float, float, float]], list[tuple[float, float, float, float]]]:
    """Cumulative MBRs: prefix[i] bounds ordered[:i+1], suffix[i] bounds
    ordered[i:]."""
    n = len(ordered)
    prefix: list[tuple[float, float, float, float]] = [None] * n  # type: ignore
    xl = yl = float("inf")
    xu = yu = float("-inf")
    for i, e in enumerate(ordered):
        if e.xl < xl:
            xl = e.xl
        if e.yl < yl:
            yl = e.yl
        if e.xu > xu:
            xu = e.xu
        if e.yu > yu:
            yu = e.yu
        prefix[i] = (xl, yl, xu, yu)
    suffix: list[tuple[float, float, float, float]] = [None] * (n + 1)  # type: ignore
    xl = yl = float("inf")
    xu = yu = float("-inf")
    suffix[n] = (xl, yl, xu, yu)
    for i in range(n - 1, -1, -1):
        e = ordered[i]
        if e.xl < xl:
            xl = e.xl
        if e.yl < yl:
            yl = e.yl
        if e.xu > xu:
            xu = e.xu
        if e.yu > yu:
            yu = e.yu
        suffix[i] = (xl, yl, xu, yu)
    return prefix, suffix


def _margin(b: tuple[float, float, float, float]) -> float:
    return (b[2] - b[0]) + (b[3] - b[1])


def _area(b: tuple[float, float, float, float]) -> float:
    return (b[2] - b[0]) * (b[3] - b[1])


def _overlap(
    b1: tuple[float, float, float, float], b2: tuple[float, float, float, float]
) -> float:
    w = min(b1[2], b2[2]) - max(b1[0], b2[0])
    if w <= 0.0:
        return 0.0
    h = min(b1[3], b2[3]) - max(b1[1], b2[1])
    if h <= 0.0:
        return 0.0
    return w * h
