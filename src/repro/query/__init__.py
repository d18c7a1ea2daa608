"""Parallel spatial query processing beyond the join (paper future work)."""

from .batch import multi_window_query
from .parallel import (
    ParallelQueryConfig,
    ParallelQueryResult,
    parallel_knn,
    parallel_window_query,
)

__all__ = [
    "ParallelQueryConfig",
    "ParallelQueryResult",
    "parallel_window_query",
    "parallel_knn",
    "multi_window_query",
]
