"""Task creation — phase 1 of the parallel join (section 3.1).

A task is a pair of subtrees (one of each R*-tree) whose root MBRs
intersect.  The m intersecting pairs of root entries are computed with the
node-level plane sweep, so the produced task sequence is already in *local
plane-sweep order* — the order both static assignments and the dynamic
queue hand tasks out in.

When m is not "much larger" than the number of processors, the paper
descends one directory level and uses the pairs of the next level as
tasks; :func:`create_tasks` repeats that until the task count reaches
``min_tasks`` or the leaf level is hit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rtree.flat import require_node_trees
from ..rtree.node import Node
from ..rtree.rstar import RStarTree
from .sequential import join_node_pair

__all__ = [
    "Task",
    "create_tasks",
    "count_root_tasks",
    "expand_node_pair",
]


@dataclass(frozen=True)
class Task:
    """One unit of parallel work: a pair of subtrees to be joined."""

    node_r: Node
    node_s: Node

    @property
    def level(self) -> int:
        """Tree level of the subtree roots (0 = leaves)."""
        return self.node_r.level


def expand_node_pair(node_r: Node, node_s: Node) -> list[tuple[Node, Node]]:
    """Child node pairs of a qualifying directory pair: the node-pair
    step's matches, in plane-sweep order (``row[4]`` is the child)."""
    return [(er[4], es[4]) for er, es in join_node_pair(node_r, node_s)[0]]


def create_tasks(
    tree_r: RStarTree, tree_s: RStarTree, min_tasks: int = 1
) -> list[Task]:
    """Phase 1: the task list in local plane-sweep order.

    Starts from the pairs of intersecting root entries; descends one level
    at a time while there are fewer than *min_tasks* tasks and the nodes
    are not yet leaves.  The order is the same whether or not the trees
    were prepared (:func:`repro.join.parallel.prepare_trees`).
    """
    require_node_trees("create_tasks", tree_r, tree_s)
    if tree_r.size == 0 or tree_s.size == 0:
        return []
    if not tree_r.mbr().intersects(tree_s.mbr()):
        return []
    if tree_r.height != tree_s.height:
        raise ValueError(
            "parallel task creation assumes equally tall trees "
            f"(got heights {tree_r.height} and {tree_s.height})"
        )
    if tree_r.height == 1:
        return [Task(tree_r.root, tree_s.root)]

    pairs = expand_node_pair(tree_r.root, tree_s.root)
    while pairs and len(pairs) < min_tasks and not pairs[0][0].is_leaf:
        descended: list[tuple[Node, Node]] = []
        for node_r, node_s in pairs:
            descended.extend(expand_node_pair(node_r, node_s))
        # Re-establish one global plane-sweep order over all pairs.
        descended.sort(key=_sweep_stop)
        pairs = descended
    return [Task(node_r, node_s) for node_r, node_s in pairs]


def count_root_tasks(tree_r: RStarTree, tree_s: RStarTree) -> int:
    """m of the paper's Table 1: intersecting pairs of root entries."""
    require_node_trees("count_root_tasks", tree_r, tree_s)
    if tree_r.size == 0 or tree_s.size == 0:
        return 0
    if tree_r.height == 1 or tree_s.height == 1:
        return int(tree_r.mbr().intersects(tree_s.mbr()))
    return len(expand_node_pair(tree_r.root, tree_s.root))


def _sweep_stop(pair: tuple[Node, Node]) -> float:
    """Where the sweep line stops for a pair: the minimum ``xl`` over both
    nodes' entries, the smaller left edge of their MBRs."""
    node_r, node_s = pair
    return min(node_r.mbr_tuple()[0], node_s.mbr_tuple()[0])
