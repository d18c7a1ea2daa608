"""The sequential R*-tree spatial join of [BKS 93] (paper section 2.2).

This is the *in-memory* filter step: synchronized depth-first traversal of
both trees, with the two CPU tuning techniques of the paper —
search-space restriction and the node-level plane sweep — individually
switchable so their effect can be measured (ablation benches).

:func:`join_node_pair` is the one node-pair step of every node-tree join:
this traversal, task creation (:mod:`repro.join.tasks`), every processor
of the simulator (:mod:`repro.join.parallel`, which also runs the
shared-nothing cluster) and the forked workers (:mod:`repro.join.mp`, one
:func:`depth_first_join` per task) all call it.  I/O behaviour of the
sequential join is obtained by running the simulator with one processor,
exactly as the paper's t(1) baseline does; this module is the algorithmic
ground truth every parallel variant is validated against.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Optional

from ..geometry.planesweep import restrict_to_window, sweep_pairs
from ..geometry.rows import PairTable
from ..rtree.node import Node
from ..rtree.rstar import RStarTree
from .flat import flat_join, packed_pair
from .refinement import ExactRefinement
from .result import SequentialJoinResult

__all__ = ["sequential_join", "depth_first_join", "join_node_pair", "PairWindow"]

_xl = attrgetter("xl")


class PairWindow:
    """MBR intersection of a node pair — the search-space restriction
    window of [BKS 93] (tuning technique (i))."""

    __slots__ = ("xl", "yl", "xu", "yu", "empty")

    def __init__(self, a: Node, b: Node):
        a_xl, a_yl, a_xu, a_yu = a.mbr_tuple()
        b_xl, b_yl, b_xu, b_yu = b.mbr_tuple()
        self.xl = max(a_xl, b_xl)
        self.yl = max(a_yl, b_yl)
        self.xu = min(a_xu, b_xu)
        self.yu = min(a_yu, b_yu)
        self.empty = self.xu < self.xl or self.yu < self.yl


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
    if tree_r.size and tree_s.size:
        depth_first_join(
            tree_r.root,
            tree_s.root,
            result,
            use_restriction=use_restriction,
            use_sweep=use_sweep,
            refinement=refinement,
        )
    result.pairs = PairTable.from_pairs(result.pairs)  # the node driver's edge
    return result


def depth_first_join(
    node_r: Node,
    node_s: Node,
    result: SequentialJoinResult,
    *,
    use_restriction: bool = True,
    use_sweep: bool = True,
    refinement: Optional[ExactRefinement] = None,
    beat: Optional[Callable[[], None]] = None,
) -> None:
    """Join the subtrees under *node_r* and *node_s* into *result*.

    Appends candidate (or, with *refinement*, answer) object pairs to the
    list ``result.pairs`` and counts node pairs and tests; *beat* (a
    forked worker's heartbeat) is called at every node pair.
    """
    pairs = result.pairs
    stack: list[tuple[Node, Node]] = [(node_r, node_s)]
    while stack:
        node_r, node_s = stack.pop()
        result.node_pairs_visited += 1
        if beat is not None:
            beat()
        if node_r.level > node_s.level:
            _descend_one_side(node_r, node_s, stack, result, left=True)
            continue
        if node_s.level > node_r.level:
            _descend_one_side(node_s, node_r, stack, result, left=False)
            continue
        matched, tests = join_node_pair(
            node_r, node_s, use_restriction=use_restriction, use_sweep=use_sweep
        )
        result.intersection_tests += tests
        if not node_r.is_leaf:
            # Reversed push: children are processed in plane-sweep order
            # before the next sibling pair (depth-first).
            stack.extend([(er.child, es.child) for er, es in reversed(matched)])
        elif refinement is None:
            pairs.extend([(er.oid, es.oid) for er, es in matched])
        else:
            pairs.extend(
                (er.oid, es.oid) for er, es in matched
                if refinement.is_answer(er.oid, es.oid)
            )


def join_node_pair(
    node_r: Node,
    node_s: Node,
    *,
    use_restriction: bool = True,
    use_sweep: bool = True,
) -> tuple[list, int]:
    """The [BKS 93] step for one pair of same-level nodes: the pair's MBR
    intersection window, the entries restricted to it, both sides in
    ``xl`` order, the plane sweep.

    Returns the intersecting entry pairs (in local plane-sweep order when
    the sweep is on) and the rectangle tests spent, the restriction's
    included; a pair with an empty window costs nothing.  Entries are
    sorted here, so the nodes need not be kept in ``xl`` order.
    """
    window = PairWindow(node_r, node_s)
    if window.empty:
        return [], 0
    entries_r = node_r.entries
    entries_s = node_s.entries
    tests = 0
    if use_restriction:
        tests = len(entries_r) + len(entries_s)
        entries_r = restrict_to_window(entries_r, window)
        entries_s = restrict_to_window(entries_s, window)
    if use_sweep:
        sweep = sweep_pairs(sorted(entries_r, key=_xl), sorted(entries_s, key=_xl))
        return sweep.pairs, tests + sweep.tests
    matched = [(er, es) for er in entries_r for es in entries_s if er.intersects(es)]
    return matched, tests + len(entries_r) * len(entries_s)


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
