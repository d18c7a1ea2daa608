"""Shard-local execution and cross-shard merge kernels.

Pure synchronous functions shared by three callers: the
:class:`~repro.shard.router.ShardRouter` (which runs the shard-local
parts in per-shard worker pools and the merges on the event loop), the
worker-side ``shard_join`` execution function, and the parity tests —
which exercise the whole K × mode grid against the unsharded oracles
without touching asyncio.

Result values use the canonical formats of :mod:`repro.service.model`,
so a merged sharded answer is *equal* to the single-tree answer, and the
merges are array operations over the answers' columns:

* window — sorted oids (concatenate + unique across shards deduplicates
  the boundary replicas);
* kNN — ``(distance, oid)`` rows ascending, the exact single-tree tie
  order;
* join — sorted oid pairs; the reference-point rule — a mask over the
  two trees' lower-left corner columns — makes the per-shard tables
  disjoint, so concatenation needs no dedup (and the checker asserts it
  got none).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..geometry.rect import Rect
from ..geometry.rows import PairTable, RowSet
from ..join.sequential import sequential_join
from ..rtree.flat import knn_rows, window_rows
from ..rtree.query import _min_distance, nearest_neighbors, window_query
from ..service.workers import window_filtered
from .partition import PartitionMap, ShardedDataset, _cells_of_points

__all__ = [
    "mindist",
    "shard_join_pairs",
    "sharded_window",
    "sharded_knn",
    "sharded_join",
]


def _lower_left(tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(oids, xl, yl)`` of a packed tree's data boxes, ascending by
    oid, so ``np.searchsorted`` finds an oid's row."""
    rows, table = tree.rows, tree.table
    oids, xl, yl = table.oids[rows], table.xl[rows], table.yl[rows]
    order = np.argsort(oids, kind="stable")
    return oids[order], xl[order], yl[order]


def mindist(rect: Rect, x: float, y: float) -> float:
    """Minimum distance from a point to a rectangle: the query kernels' own
    ``_min_distance``, so the kNN pruning bound is bit-identical to entry
    distances (an ulp off on a shard whose content box IS the candidate
    entry's box could prune an exact tie)."""
    return _min_distance(rect, x, y)


def shard_join_pairs(
    tree_r,
    tree_s,
    pmap: PartitionMap,
    shard: int,
    window: Optional[tuple] = None,
) -> PairTable:
    """Shard *shard*'s contribution to the join: the local filter-step
    pairs whose reference point this shard owns, window-filtered like the
    unsharded join kernel.  Runs inside a worker (or inline in tests).

    The reference point is the lower-left corner of the two MBRs'
    intersection (PBSM duplicate elimination).  Both objects overlap it,
    so both are replicated into the shard owning it: exactly one shard
    can (and does) report the pair."""
    pairs = sequential_join(tree_r, tree_s).pairs
    oids_r, xl_r, yl_r = _lower_left(tree_r)
    oids_s, xl_s, yl_s = _lower_left(tree_s)
    rows_r = np.searchsorted(oids_r, pairs.left)
    rows_s = np.searchsorted(oids_s, pairs.right)
    cells = _cells_of_points(
        pmap,
        np.maximum(xl_r[rows_r], xl_s[rows_s]),
        np.maximum(yl_r[rows_r], yl_s[rows_s]),
    )
    owned = np.asarray(pmap.owner, dtype=np.int64)[cells] == shard
    return window_filtered(tree_r, tree_s, pairs[owned], window)


# -- whole-dataset reference implementations ----------------------------------
def sharded_window(sharded: ShardedDataset, name: str, window: Rect) -> RowSet:
    """Route + union merge, synchronously (the router's window semantics)."""
    return RowSet.union(
        window_rows(window_query(sharded.trees[shard][name], window))
        for shard in sharded.routed_shards(name, window)
    )


def knn_shard_order(
    sharded: ShardedDataset, name: str, x: float, y: float
) -> list[tuple[float, int]]:
    """Candidate shards as ``(mindist, shard)`` in best-first order."""
    order = []
    for shard in range(sharded.shards):
        mbr = sharded.content_mbrs[shard].get(name)
        if mbr is not None:
            order.append((mindist(mbr, x, y), shard))
    order.sort()
    return order


def merge_knn(
    best: list, shard_result: Sequence[tuple], k: int
) -> list:
    """Fold one shard's kNN answer into the running top-k.

    ``best`` holds ``(distance, oid)`` sorted ascending; boundary
    replicas (same oid from two shards) deduplicate on oid.
    """
    seen = {oid for _, oid in best}
    for distance, oid in shard_result:
        if oid in seen:
            continue
        seen.add(oid)
        best.append((distance, oid))
    best.sort()
    del best[k:]
    return best


def sharded_knn(
    sharded: ShardedDataset,
    name: str,
    x: float,
    y: float,
    k: int,
    skipped: Optional[list] = None,
) -> RowSet:
    """Best-first pruning kNN across shards (the router's merge,
    synchronous).  A shard is queried only while its mindist can still
    beat the current k-th best; the non-strict boundary (query when
    ``mindist == kth``) is what lets an equal-distance neighbour across a
    shard edge displace the k-th result by the smaller oid, matching the
    single-tree tie order exactly.  ``skipped``, if given, collects
    ``(shard, mindist, kth)`` for the pruned shards."""
    best: list = []
    for bound, shard in knn_shard_order(sharded, name, x, y):
        if len(best) >= k and bound > best[-1][0]:
            if skipped is not None:
                skipped.append((shard, bound, best[-1][0]))
            continue
        found = nearest_neighbors(sharded.trees[shard][name], x, y, k=k)
        merge_knn(best, knn_rows(found), k)
    return RowSet.from_knn(best)


def sharded_join(
    sharded: ShardedDataset,
    name_r: str,
    name_s: str,
    window: Optional[Rect] = None,
) -> PairTable:
    """Route + reference-point merge, synchronously."""
    window_t = window.as_tuple() if window is not None else None
    return PairTable.concat(
        shard_join_pairs(
            sharded.trees[shard][name_r],
            sharded.trees[shard][name_s],
            sharded.pmap,
            shard,
            window_t,
        )
        for shard in sharded.join_shards(name_r, name_s, window)
    ).sorted()
