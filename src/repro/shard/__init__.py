"""repro.shard: shared-nothing sharded serving of spatial queries.

The dataset is split by a spatial :class:`Partitioner` (uniform ``grid``
or Morton-ordered ``zrange`` cuts) into K shards, each owning its own
packed R-tree; the :class:`ShardRouter` fans each window / kNN / join
request out to only the shards its geometry overlaps — through per-shard
replica :class:`~repro.service.workers.WorkerPool`\\ s with failover —
and merges the parts back into exactly the single-tree answer
(set-union for windows, best-first pruning for kNN, reference-point
duplicate elimination for joins).
"""

from .ops import (
    knn_shard_order,
    merge_knn,
    mindist,
    shard_join_pairs,
    sharded_join,
    sharded_knn,
    sharded_window,
)
from .partition import (
    PartitionMap,
    Partitioner,
    ShardedDataset,
    build_sharded,
    partition_items,
    partition_rows,
)
from .router import ShardConfig, ShardRouter

__all__ = [
    "PartitionMap",
    "Partitioner",
    "ShardedDataset",
    "build_sharded",
    "partition_items",
    "partition_rows",
    "ShardConfig",
    "ShardRouter",
    "knn_shard_order",
    "merge_knn",
    "mindist",
    "shard_join_pairs",
    "sharded_join",
    "sharded_knn",
    "sharded_window",
]
