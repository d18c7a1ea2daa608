"""Brute-force oracles over a map's MBR arrays.

Independent of every index in ``src/repro``: a window answer is checked
against one vectorised overlap test over all objects of the map, a kNN
answer against the k smallest of all point-to-MBR distances, a join
answer against the overlap of sampled map-1 objects with all of map 2.
Intervals are closed on both ends, like ``Rect.intersects``; the distance
expression is the one both backends use, so distances compare exactly.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["MapOracle", "pair_keys", "join_sample_keys", "check_join_sample"]


class MapOracle:
    """The MBRs of one map as four arrays plus the oid column."""

    def __init__(self, items):
        """*items*: ``(oid, rect)`` pairs, ``rect`` exposing xl/yl/xu/yu."""
        items = list(items)
        n = len(items)
        self.oids = np.fromiter((oid for oid, _ in items), np.int64, count=n)
        self.xl = np.fromiter((r.xl for _, r in items), np.float64, count=n)
        self.yl = np.fromiter((r.yl for _, r in items), np.float64, count=n)
        self.xu = np.fromiter((r.xu for _, r in items), np.float64, count=n)
        self.yu = np.fromiter((r.yu for _, r in items), np.float64, count=n)

    def window(self, rect: tuple) -> tuple:
        """Sorted oids of every object whose MBR intersects *rect*."""
        wxl, wyl, wxu, wyu = rect
        mask = (
            (self.xl <= wxu) & (wxl <= self.xu)
            & (self.yl <= wyu) & (wyl <= self.yu)
        )
        return tuple(sorted(self.oids[mask].tolist()))

    def knn_distances(self, x: float, y: float, k: int) -> list[float]:
        """The k smallest point-to-MBR distances, ascending."""
        dx = np.maximum(np.maximum(self.xl - x, x - self.xu), 0.0)
        dy = np.maximum(np.maximum(self.yl - y, y - self.yu), 0.0)
        dist = np.sqrt(dx * dx + dy * dy)
        k = min(k, len(dist))
        if k == 0:
            return []
        return np.sort(np.partition(dist, k - 1)[:k]).tolist()

    def check(self, request: tuple, value) -> bool:
        """Whether *value* is the right answer to one serving request."""
        if request[0] == "window":
            return tuple(value) == self.window(request[2])
        _kind, _tree, x, y, k = request
        return [d for d, _oid in value] == self.knn_distances(x, y, k)


def pair_keys(answer) -> np.ndarray:
    """The pair *set* of any join answer (result object or pair list) as
    sorted unique int64 keys ``oid_left << 32 | oid_right``.

    Eight bytes a pair where a set of tuples takes ~170: at 700k pairs the
    oracle would otherwise, not the program, set the workload's peak RSS.
    """
    pairs = getattr(answer, "pairs", None)
    if pairs is None:
        pairs = answer.pair_set() if hasattr(answer, "pair_set") else answer
    flat = np.fromiter(
        itertools.chain.from_iterable(pairs), np.int64, count=2 * len(pairs)
    )
    return np.unique((flat[0::2] << 32) | flat[1::2])


def join_sample_keys(left: MapOracle, right: MapOracle, rows) -> np.ndarray:
    """Keys of all overlaps of the *rows* of *left* against every object
    of *right*."""
    keys = [np.empty(0, np.int64)]
    for row in rows:
        mask = (
            (right.xl <= left.xu[row]) & (left.xl[row] <= right.xu)
            & (right.yl <= left.yu[row]) & (left.yl[row] <= right.yu)
        )
        keys.append((left.oids[row] << 32) | right.oids[mask])
    return np.unique(np.concatenate(keys))


def check_join_sample(keys: np.ndarray, left: MapOracle, right: MapOracle, rows) -> bool:
    """Whether *keys* restricted to the sampled left objects equals their
    brute-force overlaps."""
    got = keys[np.isin(keys >> 32, left.oids[list(rows)])]
    return np.array_equal(got, join_sample_keys(left, right, rows))
