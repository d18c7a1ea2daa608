"""The z-ordering baseline of [OM 88]: Morton curve, sorted z-intervals,
merge join."""

from .curve import Quantizer, ZRegion, decompose, interleave
from .join import ZJoinStats, zorder_join

__all__ = [
    "interleave",
    "ZRegion",
    "Quantizer",
    "decompose",
    "ZJoinStats",
    "zorder_join",
]
