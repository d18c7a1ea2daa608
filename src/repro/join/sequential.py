"""The sequential R*-tree spatial join of [BKS 93] (paper section 2.2).

This is the *in-memory* filter step: synchronized depth-first traversal of
both trees, with the two CPU tuning techniques of the paper —
search-space restriction and the node-level plane sweep — individually
switchable so their effect can be measured (ablation benches).

:func:`join_node_pair` is the one node-pair step of every node-tree join,
at every level: a page reads as ``(xl, yl, xu, yu, child or oid)`` rows
and the one row sweep of :mod:`repro.geometry.planesweep` pairs them.
This traversal, task creation (:mod:`repro.join.tasks`), every processor
of the simulator (:mod:`repro.join.parallel`, which also runs the
shared-nothing cluster) and the forked workers (:mod:`repro.join.mp`, one
:func:`depth_first_join` per task) all call it.  I/O behaviour of the
sequential join is obtained by running the simulator with one processor,
exactly as the paper's t(1) baseline does; this module is the algorithmic
ground truth every parallel variant is validated against.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Optional

from ..geometry.planesweep import restrict_rows, sweep_rows
from ..geometry.rows import PairTable
from ..rtree.node import Node, NodeRows
from ..rtree.rstar import RStarTree
from .flat import flat_join, packed_pair
from .refinement import ExactRefinement
from .result import SequentialJoinResult

__all__ = ["sequential_join", "depth_first_join", "join_node_pair"]

_row_xl = itemgetter(0)


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
    left: list = []
    right: list = []
    node_pairs = tests = 0
    if tree_r.size and tree_s.size:
        node_pairs, tests = depth_first_join(
            tree_r.root,
            tree_s.root,
            left,
            right,
            use_restriction=use_restriction,
            use_sweep=use_sweep,
            refinement=refinement,
        )
    return SequentialJoinResult(PairTable.from_oids(left, right), node_pairs, tests)


def depth_first_join(
    node_r: Node,
    node_s: Node,
    left: list,
    right: list,
    *,
    use_restriction: bool = True,
    use_sweep: bool = True,
    refinement: Optional[ExactRefinement] = None,
    beat: Optional[Callable[[], None]] = None,
) -> tuple[int, int]:
    """Join the subtrees under *node_r* and *node_s*.

    Appends the left and the right oid of every candidate (or, with
    *refinement*, answer) pair to *left* and *right* — two flat columns,
    no tuple a pair — and returns the node pairs visited and the
    rectangle tests spent; *beat* (a forked worker's heartbeat) is
    called at every node pair.
    """
    node_pairs = tests = 0
    rows = NodeRows()
    stack: list[tuple[Node, Node]] = [(node_r, node_s)]
    while stack:
        node_r, node_s = stack.pop()
        node_pairs += 1
        if beat is not None:
            beat()
        if node_r.level > node_s.level:
            tests += _descend_one_side(node_r, node_s, stack, True, rows)
            continue
        if node_s.level > node_r.level:
            tests += _descend_one_side(node_s, node_r, stack, False, rows)
            continue
        matched, spent = join_node_pair(
            node_r,
            node_s,
            use_restriction=use_restriction,
            use_sweep=use_sweep,
            rows=rows,
        )
        tests += spent
        # A matched pair is two rows; row[4] is a child or an oid.
        if node_r.level:
            # Reversed push: children are processed in plane-sweep order
            # before the next sibling pair (depth-first).
            stack.extend([(er[4], es[4]) for er, es in reversed(matched)])
        elif refinement is None:
            left.extend([er[4] for er, _ in matched])
            right.extend([es[4] for _, es in matched])
        else:
            for er, es in matched:
                if refinement.is_answer(er[4], es[4]):
                    left.append(er[4])
                    right.append(es[4])
    return node_pairs, tests


def join_node_pair(
    node_r: Node,
    node_s: Node,
    *,
    use_restriction: bool = True,
    use_sweep: bool = True,
    rows: Callable[[Node], list] = Node.rows,
) -> tuple[list, int]:
    """The [BKS 93] step for one pair of same-level nodes: the pair's MBR
    intersection window, the rows restricted to it, both sides in ``xl``
    order (a stable sort, so the nodes need not be kept in that order),
    the plane sweep.

    A page is read through *rows* (a traversal passes its
    :class:`NodeRows`) as ``(xl, yl, xu, yu, child)`` rows above the
    leaves and ``(xl, yl, xu, yu, oid)`` rows at them.  Returns the
    intersecting row pairs (in local plane-sweep order when the sweep is
    on) and the rectangle tests spent, the restriction's included; a pair
    with an empty window costs nothing.
    """
    # A leaf keeps its MBR; a directory node reduces its entries'.
    a_xl, a_yl, a_xu, a_yu = node_r.mbr_tuple() if node_r.level else node_r.mbr
    b_xl, b_yl, b_xu, b_yu = node_s.mbr_tuple() if node_s.level else node_s.mbr
    w_xl = a_xl if a_xl > b_xl else b_xl
    w_yl = a_yl if a_yl > b_yl else b_yl
    w_xu = a_xu if a_xu < b_xu else b_xu
    w_yu = a_yu if a_yu < b_yu else b_yu
    if w_xu < w_xl or w_yu < w_yl:
        return [], 0
    rows_r = rows(node_r)
    rows_s = rows(node_s)
    tests = 0
    if use_restriction:
        tests = len(rows_r) + len(rows_s)
        rows_r = restrict_rows(rows_r, w_xl, w_yl, w_xu, w_yu)
        rows_s = restrict_rows(rows_s, w_xl, w_yl, w_xu, w_yu)
    if use_sweep:
        pairs, swept = sweep_rows(sorted(rows_r, key=_row_xl), sorted(rows_s, key=_row_xl))
        return pairs, tests + swept
    matched = [
        (r, s) for r in rows_r for s in rows_s
        if r[0] <= s[2] and s[0] <= r[2] and r[1] <= s[3] and s[1] <= r[3]
    ]
    return matched, tests + len(rows_r) * len(rows_s)


def _descend_one_side(
    taller: Node,
    shorter: Node,
    stack: list[tuple[Node, Node]],
    left: bool,
    rows: Callable[[Node], list],
) -> int:
    """Unequal heights: only the taller side descends (window query
    style).  Returns the rectangle tests spent, one a row."""
    taller_rows = rows(taller)
    matches = [row[4] for row in restrict_rows(taller_rows, *shorter.mbr_tuple())]
    if left:
        stack.extend((child, shorter) for child in reversed(matches))
    else:
        stack.extend((shorter, child) for child in reversed(matches))
    return len(taller_rows)
