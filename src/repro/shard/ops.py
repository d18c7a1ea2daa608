"""Shard-local execution and cross-shard merge kernels.

Pure synchronous functions shared by three callers: the
:class:`~repro.shard.router.ShardRouter` (which runs the shard-local
parts in per-shard worker pools and the merges on the event loop), the
worker-side ``shard_join`` execution function, and the parity tests —
which exercise the whole K × mode × backend grid against the unsharded
oracles without touching asyncio.

Result values use the canonical formats of :mod:`repro.service.model`,
so a merged sharded answer is *equal* to the single-tree answer:

* window — sorted oid tuple (set union across shards deduplicates the
  boundary replicas);
* kNN — ``((distance, oid), ...)`` ascending by ``(distance,
  oid_order_key)``, the exact single-tree tie order;
* join — sorted oid-pair tuple; the reference-point rule makes the
  per-shard lists disjoint, so concatenation needs no dedup (and the
  checker asserts it got none).
"""

from __future__ import annotations

import math
from typing import Hashable, Optional, Sequence

from ..geometry.rect import Rect
from ..join.sequential import sequential_join
from ..rtree.flat import is_flat
from ..rtree.query import nearest_neighbors, oid_order_key, window_query
from .partition import PartitionMap, ShardedDataset

__all__ = [
    "data_entries",
    "mindist",
    "shard_join_pairs",
    "sharded_window",
    "sharded_knn",
    "sharded_join",
]


def data_entries(tree):
    """All data-level entries of either backend."""
    if is_flat(tree):
        return [tree.entry(i) for i in range(len(tree))]
    return list(tree.data_entries())


def mindist(rect: Rect, x: float, y: float) -> float:
    """Minimum distance from a point to a rectangle.

    Must be bit-identical to the query kernels' ``_min_distance``
    (``math.sqrt`` of the squared clamped deltas, NOT ``math.hypot``):
    the kNN pruning bound is compared against entry distances, and an
    off-by-one-ulp bound on a shard whose content box IS the candidate
    entry's box could prune an exact tie.
    """
    dx = max(rect.xl - x, x - rect.xu, 0.0)
    dy = max(rect.yl - y, y - rect.yu, 0.0)
    return math.sqrt(dx * dx + dy * dy)


def reference_point(r, s) -> tuple[float, float]:
    """The lower-left corner of two MBRs' intersection — the PBSM
    duplicate-elimination reference point.  Both objects overlap it, so
    both are replicated into the shard owning it: exactly one shard can
    (and does) report the pair."""
    return (max(r.xl, s.xl), max(r.yl, s.yl))


def shard_join_pairs(
    tree_r,
    tree_s,
    pmap: PartitionMap,
    shard: int,
    window: Optional[tuple] = None,
) -> tuple:
    """Shard *shard*'s contribution to the join: the local filter-step
    pairs whose reference point this shard owns, window-filtered like the
    unsharded join kernel.  Runs inside a worker (or inline in tests)."""
    if getattr(tree_r, "size", 0) == 0 or getattr(tree_s, "size", 0) == 0:
        return ()
    pairs = sequential_join(tree_r, tree_s).pairs
    if not pairs:
        return ()
    rects_r = {e.oid: e for e in data_entries(tree_r)}
    rects_s = {e.oid: e for e in data_entries(tree_s)}
    kept = []
    for oid_r, oid_s in pairs:
        px, py = reference_point(rects_r[oid_r], rects_s[oid_s])
        if pmap.owner_of_point(px, py) == shard:
            kept.append((oid_r, oid_s))
    if window is not None:
        rect = Rect(*window)
        keep_r = {e.oid for e in window_query(tree_r, rect)}
        keep_s = {e.oid for e in window_query(tree_s, rect)}
        kept = [(r, s) for r, s in kept if r in keep_r and s in keep_s]
    return tuple(sorted(kept))


# -- whole-dataset reference implementations ----------------------------------
def sharded_window(sharded: ShardedDataset, name: str, window: Rect) -> tuple:
    """Route + union merge, synchronously (the router's window semantics)."""
    merged: set = set()
    for shard in sharded.routed_shards(name, window):
        tree = sharded.trees[shard][name]
        merged.update(e.oid for e in window_query(tree, window))
    return tuple(sorted(merged))


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

    ``best`` holds ``(distance, order_key, oid)`` sorted ascending;
    boundary replicas (same oid from two shards) deduplicate on oid.
    """
    seen = {oid for _, _, oid in best}
    for distance, oid in shard_result:
        if oid in seen:
            continue
        seen.add(oid)
        best.append((distance, oid_order_key(oid), oid))
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
) -> tuple:
    """Best-first pruning kNN across shards (the router's merge,
    synchronous).  A shard is queried only while its mindist can still
    beat the current k-th best; the non-strict boundary (query when
    ``mindist == kth``) is what lets an equal-distance neighbour across a
    shard edge displace the k-th result by ``oid_order_key``, matching
    the single-tree tie order exactly.  ``skipped``, if given, collects
    ``(shard, mindist, kth)`` for the pruned shards."""
    best: list = []
    for bound, shard in knn_shard_order(sharded, name, x, y):
        if len(best) >= k and bound > best[-1][0]:
            if skipped is not None:
                skipped.append((shard, bound, best[-1][0]))
            continue
        tree = sharded.trees[shard][name]
        found = nearest_neighbors(tree, x, y, k=k) if tree.size else []
        merge_knn(best, [(float(d), e.oid) for d, e in found], k)
    return tuple((d, oid) for d, _, oid in best)


def sharded_join(
    sharded: ShardedDataset,
    name_r: str,
    name_s: str,
    window: Optional[Rect] = None,
) -> tuple:
    """Route + reference-point merge, synchronously."""
    window_t = window.as_tuple() if window is not None else None
    merged: list = []
    for shard in sharded.join_shards(name_r, name_s, window):
        merged.extend(
            shard_join_pairs(
                sharded.trees[shard][name_r],
                sharded.trees[shard][name_s],
                sharded.pmap,
                shard,
                window_t,
            )
        )
    return tuple(sorted(merged))
