"""The R*-tree access method [BKSS 90] and its pagination onto disk."""

from .bulk import str_bulk_load
from .entry import Entry
from .flat import FlatRTree, build_flat_tree
from .node import Node
from .pagestore import PageStore
from .query import QueryStats, nearest_neighbors, window_query
from .rstar import RStarTree
from .stats import TreeStats, tree_stats

__all__ = [
    "Entry",
    "Node",
    "RStarTree",
    "FlatRTree",
    "build_flat_tree",
    "str_bulk_load",
    "PageStore",
    "TreeStats",
    "tree_stats",
    "window_query",
    "nearest_neighbors",
    "QueryStats",
]
