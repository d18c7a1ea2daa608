"""Tree statistics — the quantities of the paper's Table 1.

Table 1 reports, per tree: height, number of data entries, number of data
pages, number of directory pages, and the number m of intersecting
root-entry pairs (which depends on *both* trees and therefore lives in
:func:`repro.join.tasks.count_root_tasks`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .flat import require_node_trees
from .rstar import RStarTree

__all__ = ["TreeStats", "tree_stats"]


@dataclass(frozen=True)
class TreeStats:
    """Shape summary of one R*-tree."""

    height: int
    data_entries: int
    data_pages: int
    directory_pages: int
    avg_leaf_fill: float
    avg_dir_fill: float
    nodes_per_level: dict[int, int]

    def as_table1_row(self) -> dict[str, int]:
        """The four per-tree rows of Table 1."""
        return {
            "height": self.height,
            "number of data entries": self.data_entries,
            "number of data pages": self.data_pages,
            "number of directory pages": self.directory_pages,
        }


def tree_stats(tree: RStarTree) -> TreeStats:
    """Compute the Table 1 statistics of *tree* in one traversal."""
    require_node_trees("tree_stats", tree)
    data_pages = 0
    dir_pages = 0
    data_entries = 0
    leaf_entry_total = 0
    dir_entry_total = 0
    per_level: dict[int, int] = {}
    for node in tree.nodes():
        per_level[node.level] = per_level.get(node.level, 0) + 1
        if node.is_leaf:
            data_pages += 1
            data_entries += len(node)
            leaf_entry_total += len(node)
        else:
            dir_pages += 1
            dir_entry_total += len(node)
    avg_leaf_fill = (
        leaf_entry_total / (data_pages * tree.data_capacity) if data_pages else 0.0
    )
    avg_dir_fill = (
        dir_entry_total / (dir_pages * tree.dir_capacity) if dir_pages else 0.0
    )
    return TreeStats(
        height=tree.height,
        data_entries=data_entries,
        data_pages=data_pages,
        directory_pages=dir_pages,
        avg_leaf_fill=avg_leaf_fill,
        avg_dir_fill=avg_dir_fill,
        nodes_per_level=per_level,
    )
