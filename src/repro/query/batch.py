"""Shared-traversal evaluation of a *batch* of window queries.

The serving engine's micro-batcher (:mod:`repro.service.batcher`) coalesces
window queries that arrive close together in time; this module supplies the
execution side: **one** R*-tree traversal answers the whole batch.  At each
directory node the batch is narrowed to the windows that intersect the
node's entries, so subtrees relevant to no window are pruned once for the
entire batch and directory pages shared by several windows are inspected
once instead of once per query — the page-sharing effect the paper's
global buffer achieves across processors, obtained here across queries.
"""

from __future__ import annotations

from typing import Sequence

from ..rtree.entry import Entry
from ..rtree.flat import is_flat
from ..rtree.query import require_window

__all__ = ["multi_window_query"]


def multi_window_query(tree, windows: Sequence) -> list[Sequence[Entry]]:
    """Answer all *windows* against *tree* in a single traversal.

    Returns one entry sequence per window, positionally aligned with the
    input.  Each list equals what :func:`repro.rtree.query.window_query`
    returns for that window alone (as a set of entries; the visit order
    may differ because the traversal is driven by the union of windows).
    """
    for window in windows:
        require_window(window)
    if is_flat(tree):
        return tree.multi_window(windows)
    results: list[list[Entry]] = [[] for _ in windows]
    if not windows or tree.size == 0:
        return results
    # (node, indices of windows that may have entries under it)
    stack: list[tuple[object, list[int]]] = [
        (tree.root, list(range(len(windows))))
    ]
    while stack:
        node, active = stack.pop()
        if node.is_leaf:
            for index in active:
                results[index].extend(node.data_entries(windows[index]))
        else:
            for entry in node.entries:
                surviving = [
                    index for index in active if entry.intersects(windows[index])
                ]
                if surviving:
                    stack.append((entry.child, surviving))
    return results
