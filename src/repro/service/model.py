"""Typed requests and responses of the serving engine.

Three request classes mirror the operations the paper's future-work
section names for a parallel spatial query framework: **window** queries,
**k-nearest-neighbour** queries, and the **spatial join** itself.  Each
request is an immutable dataclass naming the pre-built tree(s) it runs
against; each produces a :class:`Response` carrying a terminal
:class:`Status`, the (canonically ordered) result value and bookkeeping
the metrics layer and the tests consume.

Result values are canonical so that cached and uncached executions are
*comparable by equality*: a window result is a sequence equal to the
sorted oid tuple, a kNN result one equal to the ``(distance, oid)`` tuples
in ascending order, a join result one equal to the sorted oid-pair tuples —
each held as columns (:class:`~repro.geometry.rows.RowSet` /
:class:`~repro.geometry.rows.PairTable`: read-only, unhashable, builtin
objects made only when iterated) from the kernel to ``Response.value``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence, Tuple

from ..geometry.rect import Rect

__all__ = [
    "RequestClass",
    "Status",
    "WindowRequest",
    "KNNRequest",
    "JoinRequest",
    "Request",
    "Response",
    "canonical_rect",
]

#: Decimal places query coordinates are rounded to when forming cache
#: keys; fine enough that distinct windows stay distinct at any realistic
#: map scale, coarse enough that float noise from different clients
#: producing "the same" window still hits.
CANONICAL_DIGITS = 9


class RequestClass(str, enum.Enum):
    """Admission-control class of a request."""

    WINDOW = "window"
    KNN = "knn"
    JOIN = "join"


class Status(str, enum.Enum):
    """Terminal outcome of one request."""

    OK = "ok"
    REJECTED = "rejected"
    TIMEOUT = "timeout"
    CANCELLED = "cancelled"
    ERROR = "error"


def canonical_rect(rect) -> Tuple[float, float, float, float]:
    """A hashable, float-stable key for a query rectangle.

    Accepts anything exposing ``xl/yl/xu/yu`` (a :class:`Rect`, an R-tree
    entry) or a 4-tuple; orders the corners and rounds the coordinates so
    equal-up-to-noise windows share a cache line.
    """
    if isinstance(rect, tuple):
        xl, yl, xu, yu = rect
    else:
        xl, yl, xu, yu = rect.xl, rect.yl, rect.xu, rect.yu
    if xu < xl:
        xl, xu = xu, xl
    if yu < yl:
        yl, yu = yu, yl
    # round() normalises -0.0 noise too: -0.0 + 0 == 0.0
    return (
        round(xl, CANONICAL_DIGITS) + 0.0,
        round(yl, CANONICAL_DIGITS) + 0.0,
        round(xu, CANONICAL_DIGITS) + 0.0,
        round(yu, CANONICAL_DIGITS) + 0.0,
    )


@dataclass(frozen=True)
class WindowRequest:
    """All objects of *tree* whose MBR intersects *window*."""

    tree: str
    window: Rect
    cacheable: bool = True

    cls = RequestClass.WINDOW

    def cache_key(self) -> Hashable:
        return ("window", self.tree, canonical_rect(self.window))


@dataclass(frozen=True)
class KNNRequest:
    """The *k* objects of *tree* nearest to ``(x, y)``."""

    tree: str
    x: float
    y: float
    k: int
    cacheable: bool = True

    cls = RequestClass.KNN

    def cache_key(self) -> Hashable:
        return (
            "knn",
            self.tree,
            round(float(self.x), CANONICAL_DIGITS) + 0.0,
            round(float(self.y), CANONICAL_DIGITS) + 0.0,
            int(self.k),
        )


@dataclass(frozen=True)
class JoinRequest:
    """All intersecting MBR pairs between *tree_r* and *tree_s* (filter
    step), optionally restricted to pairs intersecting *window*."""

    tree_r: str
    tree_s: str
    window: Optional[Rect] = None
    cacheable: bool = True

    cls = RequestClass.JOIN

    def cache_key(self) -> Hashable:
        window = canonical_rect(self.window) if self.window is not None else None
        return ("join", self.tree_r, self.tree_s, window)


Request = WindowRequest | KNNRequest | JoinRequest


@dataclass
class Response:
    """What the engine hands back for one submitted request."""

    status: Status
    request_class: RequestClass
    value: Optional[Sequence] = None
    latency_s: float = 0.0
    cached: bool = False
    batch_size: int = 0
    detail: str = ""
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is Status.OK

    def __repr__(self) -> str:
        size = len(self.value) if self.value is not None else "-"
        flags = " cached" if self.cached else ""
        return (
            f"<Response {self.request_class.value} {self.status.value} "
            f"n={size} {self.latency_s * 1e3:.2f}ms{flags}>"
        )
