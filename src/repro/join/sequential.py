"""The sequential R*-tree spatial join of [BKS 93] (paper section 2.2).

This is the *in-memory* filter step: synchronized depth-first traversal of
both trees, with the two CPU tuning techniques of the paper —
search-space restriction and the node-level plane sweep — individually
switchable so their effect can be measured (ablation benches).

I/O behaviour of the sequential join is obtained by running the *parallel*
join of :mod:`repro.join.parallel` with one processor, exactly as the
paper's t(1) baseline does; this module is the algorithmic ground truth
(used to validate every parallel variant) and the engine of the real
``multiprocessing`` backend.
"""

from __future__ import annotations

from typing import Hashable, Optional

from ..geometry.planesweep import restrict_to_window, sweep_pairs
from ..geometry.rows import PairTable
from ..rtree.node import Node
from ..rtree.rstar import RStarTree
from .flat import flat_join, packed_pair
from .refinement import ExactRefinement
from .result import SequentialJoinResult
from .tasks import PairWindow

__all__ = ["sequential_join", "join_node_pair"]


def sequential_join(
    tree_r: RStarTree,
    tree_s: RStarTree,
    *,
    use_restriction: bool = True,
    use_sweep: bool = True,
    refinement: Optional[ExactRefinement] = None,
) -> SequentialJoinResult:
    """Compute all pairs of data entries with intersecting MBRs.

    With ``refinement`` given, candidates are immediately tested against
    their exact geometry and only the answers are kept (multi-step
    processing); otherwise the candidate set of the filter step is
    returned.  Candidates appear in the local plane-sweep order when
    ``use_sweep`` is on.  Two packed trees run the vectorized kernel of
    :mod:`repro.join.flat`, which has no tuning switches: the ablation
    (either knob off) is measured on node R*-trees only.
    """
    if packed_pair(tree_r, tree_s):
        if not (use_restriction and use_sweep):
            raise ValueError(
                "use_restriction=False / use_sweep=False ablate the node "
                "R*-tree join; the packed kernel has neither switch — run "
                "the ablation on node trees"
            )
        return flat_join(tree_r, tree_s, refinement=refinement)
    result = SequentialJoinResult(pairs=[])
    stack: list[tuple[Node, Node]] = (
        [(tree_r.root, tree_s.root)] if tree_r.size and tree_s.size else []
    )
    while stack:
        node_r, node_s = stack.pop()
        result.node_pairs_visited += 1
        if node_r.level > node_s.level:
            _descend_one_side(node_r, node_s, stack, result, left=True)
            continue
        if node_s.level > node_r.level:
            _descend_one_side(node_s, node_r, stack, result, left=False)
            continue
        children = join_node_pair(
            node_r,
            node_s,
            result,
            use_restriction=use_restriction,
            use_sweep=use_sweep,
            refinement=refinement,
        )
        # Reversed push: children are processed in plane-sweep order
        # before the next sibling pair (depth-first).
        stack.extend(reversed(children))
    result.pairs = PairTable.from_pairs(result.pairs)  # the node driver's edge
    return result


def join_node_pair(
    node_r: Node,
    node_s: Node,
    result: SequentialJoinResult,
    *,
    use_restriction: bool = True,
    use_sweep: bool = True,
    refinement: Optional[ExactRefinement] = None,
) -> list[tuple[Node, Node]]:
    """Join one pair of same-level nodes.

    Appends candidate (or refined) object pairs to *result* when the nodes
    are leaves; returns the qualifying child node pairs otherwise.
    """
    window = PairWindow(node_r, node_s)
    if window.empty:
        return []
    entries_r = node_r.entries
    entries_s = node_s.entries
    if use_restriction:
        result.intersection_tests += len(entries_r) + len(entries_s)
        entries_r = restrict_to_window(entries_r, window)
        entries_s = restrict_to_window(entries_s, window)
    if use_sweep:
        entries_r = sorted(entries_r, key=_xl)
        entries_s = sorted(entries_s, key=_xl)
        sweep = sweep_pairs(entries_r, entries_s)
        result.intersection_tests += sweep.tests
        matched = sweep.pairs
    else:
        result.intersection_tests += len(entries_r) * len(entries_s)
        matched = [
            (er, es)
            for er in entries_r
            for es in entries_s
            if er.intersects(es)
        ]
    if node_r.is_leaf:
        for er, es in matched:
            _emit(er.oid, es.oid, result, refinement)
        return []
    return [(er.child, es.child) for er, es in matched]


def _descend_one_side(
    taller: Node,
    shorter: Node,
    stack: list[tuple[Node, Node]],
    result: SequentialJoinResult,
    left: bool,
) -> None:
    """Unequal heights: only the taller side descends (window query style)."""
    s_xl, s_yl, s_xu, s_yu = shorter.mbr_tuple()

    class _ShortMBR:
        xl, yl, xu, yu = s_xl, s_yl, s_xu, s_yu

    matches = []
    for entry in taller.entries:
        result.intersection_tests += 1
        if entry.intersects(_ShortMBR):
            matches.append(entry.child)
    if left:
        stack.extend((child, shorter) for child in reversed(matches))
    else:
        stack.extend((shorter, child) for child in reversed(matches))


def _emit(
    oid_r: Hashable,
    oid_s: Hashable,
    result: SequentialJoinResult,
    refinement: Optional[ExactRefinement],
) -> None:
    if refinement is None or refinement.is_answer(oid_r, oid_s):
        result.pairs.append((oid_r, oid_s))


def _xl(entry) -> float:
    return entry.xl
