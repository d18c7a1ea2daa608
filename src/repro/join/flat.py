"""Vectorized spatial-join filter over the flat packed backend.

The synchronized traversal of [BKS 93] tests every child of node R
against every child of node S; on the pointer backend that is a Python
plane sweep per node pair.  Here the whole *frontier* of qualifying node
pairs descends one level per round, and all its ``M x N`` child-pair
intersection tests run as **one** numpy broadcast — the node-vs-node
filter the roadmap asks to SIMD-ify.  The emitted candidate pairs are
the exact result set of :func:`repro.join.sequential.sequential_join`
over the same data, so everything downstream of the filter (refinement,
window post-filters, the service pipeline) is backend-agnostic.

There is no fork path here: ``_FlatJoinPlan`` is this backend's *join
plan* for the one forked driver of :mod:`repro.join.mp` — the qualifying
frontier of :func:`create_flat_tasks` as the task list, one kernel call
per leased slice, one heartbeat per frontier round.  Workers inherit the
plan, and with it the packed arrays and the maps' tables, by
copy-on-write (fork-inherits-*arrays*), so the flat backend gets leases
and redispatch for free.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..geometry.rows import PairTable
from ..rtree.flat import FlatRTree, is_flat
from .refinement import ExactRefinement
from .result import SequentialJoinResult

__all__ = [
    "flat_join",
    "create_flat_tasks",
    "packed_pair",
]

#: Most frontier pairs one round descends together.  A longer frontier is
#: cut into blocks that descend one after the other — same pairs, same
#: order — which bounds a round's working set and, under the forked
#: driver, the time between two heartbeats of a healthy chunk.
_BLOCK = 1 << 13


def packed_pair(tree_r, tree_s) -> bool:
    """True for two packed trees, False for two node trees — what every
    join entry point that serves either backend asks first.  A mixed pair
    is refused: no kernel joins arrays with pages, and rebuilding one side
    would silently time a tree the caller never built."""
    flat_r, flat_s = is_flat(tree_r), is_flat(tree_s)
    if flat_r != flat_s:
        kinds = ("a node R*-tree", "a packed FlatRTree")
        raise ValueError(
            f"cannot join mixed backends: tree_r is {kinds[flat_r]}, tree_s "
            f"is {kinds[flat_s]}; build both relations on one backend"
        )
    return flat_r


def flat_join(
    tree_r: FlatRTree,
    tree_s: FlatRTree,
    *,
    refinement: Optional[ExactRefinement] = None,
) -> SequentialJoinResult:
    """All pairs of data entries with intersecting MBRs, vectorized.

    Mirrors :func:`repro.join.sequential.sequential_join`: returns the
    filter step's candidate pairs (or, with *refinement*, only the exact
    answers).  ``intersection_tests`` counts the broadcast comparisons,
    ``node_pairs_visited`` the frontier pairs expanded.
    """
    result = SequentialJoinResult(pairs=[])
    # An empty side starts from an empty frontier: a typed empty table.
    roots = np.zeros(min(1, tree_r.size, tree_s.size), dtype=np.int64)
    result.pairs = _frontier_join(
        tree_r,
        tree_s,
        tree_r.num_levels - 1,
        tree_s.num_levels - 1,
        roots,
        roots,
        result,
    )
    if refinement is not None:
        result.pairs = PairTable.from_pairs(refinement.filter_answers(result.pairs))
    return result


def _frontier_join(
    tree_r: FlatRTree,
    tree_s: FlatRTree,
    level_r: int,
    level_s: int,
    nodes_r: np.ndarray,
    nodes_s: np.ndarray,
    result: Optional[SequentialJoinResult],
    beat=None,
) -> PairTable:
    """Descend a frontier of qualifying node pairs to the data level.

    ``nodes_r``/``nodes_s`` are positionally-aligned index arrays into
    levels ``level_r``/``level_s`` of the respective trees.  The root
    pair enters untested — like the sequential join, whose root pair is
    popped and window-checked rather than pre-filtered — and the first
    round's broadcast takes care of it (a root pair with disjoint MBRs
    simply produces an all-false mask).  *beat* (the forked driver's
    heartbeat) is called once per round.
    """
    while len(nodes_r) and (level_r > 0 or level_s > 0):
        if len(nodes_r) > _BLOCK:
            return PairTable.concat(
                _frontier_join(
                    tree_r,
                    tree_s,
                    level_r,
                    level_s,
                    nodes_r[lo : lo + _BLOCK],
                    nodes_s[lo : lo + _BLOCK],
                    result,
                    beat,
                )
                for lo in range(0, len(nodes_r), _BLOCK)
            )
        if beat is not None:
            beat()
        if result is not None and level_r >= 1 and level_s >= 1:
            result.node_pairs_visited += len(nodes_r)
        if level_r > level_s:
            # Unequal heights: only the taller side descends.
            children, parent_pos = tree_r.children_of(level_r, nodes_r)
            partner = nodes_s[parent_pos]
            keep = _intersects(
                tree_r, level_r - 1, children, tree_s, level_s, partner
            )
            if result is not None:
                result.intersection_tests += len(children)
            nodes_r, nodes_s = children[keep], partner[keep]
            level_r -= 1
            continue
        if level_s > level_r:
            children, parent_pos = tree_s.children_of(level_s, nodes_s)
            partner = nodes_r[parent_pos]
            keep = _intersects(
                tree_r, level_r, partner, tree_s, level_s - 1, children
            )
            if result is not None:
                result.intersection_tests += len(children)
            nodes_r, nodes_s = partner[keep], children[keep]
            level_s -= 1
            continue
        # Equal levels.  First the search-space restriction of [BKS 93]
        # (tuning technique (i)), vectorized: each side's children are
        # tested against the *partner node's* MBR, so the cross products
        # below cover only children inside the pair's overlap window —
        # without this, every leaf pair costs node_size^2 tests.
        ch_r, boxes_r, counts_r, tested_r = _restricted_children(
            tree_r, level_r, nodes_r, tree_s, level_s, nodes_s
        )
        ch_s, boxes_s, counts_s, tested_s = _restricted_children(
            tree_s, level_s, nodes_s, tree_r, level_r, nodes_r
        )
        a, b = _cross_ragged(counts_r, counts_s)
        keep = _overlap(boxes_r, a, boxes_s, b)
        if result is not None:
            result.intersection_tests += tested_r + tested_s + len(a)
        nodes_r, nodes_s = ch_r[a[keep]], ch_s[b[keep]]
        level_r -= 1
        level_s -= 1
    return PairTable(
        tree_r.table.oids[tree_r.rows[nodes_r]],
        tree_s.table.oids[tree_s.rows[nodes_s]],
    )


def _restricted_children(tree_a, level_a, nodes_a, tree_b, level_b, nodes_b):
    """Children of each a-node that intersect its partner b-node's MBR.

    Returns ``(children, boxes, counts, tested)``: the surviving children
    (grouped by frontier pair, in pair order), their boxes in block-local
    columns, how many survive per frontier pair, and how many children
    were tested (for the counters).  Every child's box is read once —
    through ``rows`` at the leaves — and the survivors' are kept, so the
    cross test reads them by position and no table row per tested pair.
    """
    children, parent_pos = tree_a.children_of(level_a, nodes_a)
    boxes = tree_a.boxes(level_a - 1, children)
    columns, at = tree_b.locate(level_b, nodes_b[parent_pos])
    kept = np.flatnonzero(_overlap(boxes, slice(None), columns, at))
    counts = np.bincount(parent_pos[kept], minlength=len(nodes_a))
    return children[kept], [column[kept] for column in boxes], counts, len(children)


def _cross_ragged(a_counts, b_counts):
    """Cross products of positionally-aligned ragged groups.

    Frontier pair *p* owns the next ``a_counts[p]`` positions of side a
    and the next ``b_counts[p]`` of side b; emits all ``a_counts[p] *
    b_counts[p]`` position pairs of every pair, a-major — pure integer
    arithmetic, no Python loop.  Each a-position becomes one run over its
    pair's b-group.
    """
    run = np.repeat(b_counts, a_counts)
    total = int(run.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    b_first = np.repeat(np.cumsum(b_counts) - b_counts, a_counts)
    run_first = np.cumsum(run) - run
    shift = np.repeat(run_first - b_first, run)
    return np.repeat(np.arange(len(run)), run), np.arange(total) - shift


def _overlap(columns_r, at_r, columns_s, at_s) -> np.ndarray:
    """Vectorized closed-interval intersection of the boxes at *at_r* and
    *at_s* of two column sets; each gather is freed at its comparison."""
    rxl, ryl, rxu, ryu = columns_r
    sxl, syl, sxu, syu = columns_s
    return (
        (rxl[at_r] <= sxu[at_s])
        & (sxl[at_s] <= rxu[at_r])
        & (ryl[at_r] <= syu[at_s])
        & (syl[at_s] <= ryu[at_r])
    )


def _intersects(tree_r, level_r, idx_r, tree_s, level_s, idx_s) -> np.ndarray:
    """:func:`_overlap` of two levels' boxes, read in place."""
    return _overlap(*tree_r.locate(level_r, idx_r), *tree_s.locate(level_s, idx_s))


# ---------------------------------------------------------------------------
# Task creation and the join plan of the forked driver
# ---------------------------------------------------------------------------


def create_flat_tasks(
    tree_r: FlatRTree, tree_s: FlatRTree, min_tasks: int = 1
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Descend the qualifying frontier until it carries *min_tasks* pairs.

    Returns ``(level_r, level_s, nodes_r, nodes_s)`` — the flat analogue
    of :func:`repro.join.tasks.create_tasks`'s subtree-pair list.  Unlike
    the node path it handles unequal tree heights (the taller side simply
    keeps descending).
    """
    level_r = tree_r.num_levels - 1
    level_s = tree_s.num_levels - 1
    nodes_r = np.zeros(1, dtype=np.int64)
    nodes_s = np.zeros(1, dtype=np.int64)
    if tree_r.size == 0 or tree_s.size == 0:
        return 1, 1, nodes_r[:0], nodes_s[:0]
    while (level_r > 1 or level_s > 1) and len(nodes_r) < min_tasks:
        if level_r >= level_s:
            children, parent_pos = tree_r.children_of(level_r, nodes_r)
            partner = nodes_s[parent_pos]
            keep = _intersects(
                tree_r, level_r - 1, children, tree_s, level_s, partner
            )
            nodes_r, nodes_s = children[keep], partner[keep]
            level_r -= 1
        else:
            children, parent_pos = tree_s.children_of(level_s, nodes_s)
            partner = nodes_r[parent_pos]
            keep = _intersects(
                tree_r, level_r, partner, tree_s, level_s - 1, children
            )
            nodes_r, nodes_s = partner[keep], children[keep]
            level_s -= 1
        if len(nodes_r) == 0:
            break
    return level_r, level_s, nodes_r, nodes_s


class _FlatJoinPlan:
    """Join plan of the packed backend (see :func:`repro.join.mp.plan_join`):
    the :func:`create_flat_tasks` frontier, one vectorized kernel call per
    slice."""

    def __init__(self, tree_r: FlatRTree, tree_s: FlatRTree, min_tasks: int):
        self.tree_r = tree_r
        self.tree_s = tree_s
        self.level_r, self.level_s, self.nodes_r, self.nodes_s = (
            create_flat_tasks(tree_r, tree_s, min_tasks)
        )

    def __len__(self) -> int:
        return len(self.nodes_r)

    def run(self, start: int, stop: int, beat=None) -> PairTable:
        """Candidate pairs of frontier slice ``[start, stop)``.  A
        vectorized slice has no per-task loop: *beat* (the heartbeat) is
        called once per round of the descent (none for an empty slice)."""
        return _frontier_join(
            self.tree_r,
            self.tree_s,
            self.level_r,
            self.level_s,
            self.nodes_r[start:stop],
            self.nodes_s[start:stop],
            None,
            beat,
        )
