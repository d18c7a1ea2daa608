"""The z-order (Morton) space-filling curve and z-region decomposition.

[OM 88] (PROBE), reviewed in the paper's section 2.1, processes spatial
joins on B-trees over *z-values*: space is quartered recursively, every
quadrant at level ``l`` is a *z-region* — a prefix of the Morton code —
and an object is approximated by a small set of z-regions covering its
MBR.  A z-region corresponds to a contiguous interval of z-values, so
B-tree machinery (sorting, range scans, merge joins) applies.

This module provides the curve: bit interleaving, the z-region type, and
the recursive decomposition of a rectangle into at most ``max_regions``
z-regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..geometry.rect import Rect
from ..rtree.query import require_count

__all__ = ["interleave", "interleave_array", "ZRegion", "decompose", "Quantizer"]


def interleave(ix: int, iy: int, bits: int) -> int:
    """Morton code: interleave the low *bits* (an integer in ``[1, 28]``)
    of ix (even) and iy (odd)."""
    _require_bits(bits)
    return _interleave(ix, iy, bits)


def _interleave(ix: int, iy: int, bits: int) -> int:
    """:func:`interleave` for a *bits* already checked."""
    code = 0
    for bit in range(bits):
        code |= ((ix >> bit) & 1) << (2 * bit)
        code |= ((iy >> bit) & 1) << (2 * bit + 1)
    return code


def interleave_array(ix, iy, bits: int):
    """Vectorized :func:`interleave` over numpy integer arrays.

    Spreads the low *bits* (at most 28, like :class:`Quantizer`) of each
    coordinate with the classic mask-and-shift cascade, so a whole map's
    Morton codes come out of six bitwise passes instead of a Python loop
    per object.  Returns a ``uint64`` array; element ``i`` equals
    ``interleave(int(ix[i]), int(iy[i]), bits)``.
    """
    import numpy as np  # deferred: the scalar curve stays numpy-free

    _require_bits(bits)
    mask = np.uint64((1 << bits) - 1)
    x = np.asarray(ix, dtype=np.uint64) & mask
    y = np.asarray(iy, dtype=np.uint64) & mask
    return _spread_bits(np, x) | (_spread_bits(np, y) << np.uint64(1))


def _require_bits(bits) -> None:
    """Raise ``ValueError`` unless *bits* is a count in ``[1, 28]``: the
    codes of two 28-bit coordinates fill 56 bits of a ``uint64``."""
    require_count("bits", bits)
    if bits > 28:
        raise ValueError(f"bits must be in [1, 28], got {bits!r}")


def _spread_bits(np, v):
    """Insert a zero bit between consecutive bits of each uint64 element."""
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


@dataclass(frozen=True, order=True)
class ZRegion:
    """A quadtree cell as a z-value interval ``[lo, hi]`` (inclusive).

    ``level`` 0 is the whole space; each level quarters the cells.  The
    interval bounds are z-values at the finest resolution, so regions of
    different levels compare directly.
    """

    lo: int
    hi: int
    level: int


class Quantizer:
    """Maps world coordinates into the ``2^bits`` x ``2^bits`` grid."""

    def __init__(self, bounds: Rect, bits: int = 12):
        _require_bits(bits)
        self.bounds = bounds
        self.bits = bits
        self.cells = 1 << bits
        self._sx = self._scale(bounds.xu - bounds.xl)
        self._sy = self._scale(bounds.yu - bounds.yl)

    def _scale(self, extent: float) -> float:
        """Cells per world unit: finite, or 0.0 (everything in cell 0) for
        an extent of zero or so small — subnormal — that the quotient
        overflows: ``0 * inf`` would be a NaN cell."""
        scale = self.cells / extent if extent > 0 else 0.0
        return scale if math.isfinite(scale) else 0.0

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        # Clamped while still a float (like cells_of): a point far outside
        # the bounds may scale to infinity, which no int can hold.
        limit = self.cells - 1
        ix = min(max((x - self.bounds.xl) * self._sx, 0.0), limit)
        iy = min(max((y - self.bounds.yl) * self._sy, 0.0), limit)
        return (int(ix), int(iy))

    def cells_of(self, xs, ys):
        """Vectorized :meth:`cell_of` over numpy coordinate arrays."""
        import numpy as np  # deferred: the scalar curve stays numpy-free

        limit = self.cells - 1
        with np.errstate(over="ignore"):  # far outside the bounds: inf, clamped
            ix = (np.asarray(xs, dtype=np.float64) - self.bounds.xl) * self._sx
            iy = (np.asarray(ys, dtype=np.float64) - self.bounds.yl) * self._sy
        return (
            np.clip(ix, 0, limit).astype(np.int64),
            np.clip(iy, 0, limit).astype(np.int64),
        )

    def grid_rect(self, rect: Rect) -> tuple[int, int, int, int]:
        """Inclusive grid-cell bounds covering *rect*."""
        ix0, iy0 = self.cell_of(rect.xl, rect.yl)
        ix1, iy1 = self.cell_of(rect.xu, rect.yu)
        return (ix0, iy0, ix1, iy1)


def decompose(rect: Rect, quantizer: Quantizer, max_regions: int = 4) -> list[ZRegion]:
    """Cover *rect* with at most *max_regions* z-regions.

    Recursive quadtree descent: a cell is kept whole when it lies inside
    the rectangle or when splitting it would exceed the budget; otherwise
    it is quartered.  More regions = tighter approximation = fewer false
    hits but more z-intervals to sort and merge — [OM 88]'s central trade-off.
    """
    require_count("max_regions", max_regions)
    return _decompose(rect, quantizer, max_regions)


def _decompose(rect: Rect, quantizer: Quantizer, max_regions: int) -> list[ZRegion]:
    """:func:`decompose` for a *max_regions* already checked."""
    bits = quantizer.bits
    ix0, iy0, ix1, iy1 = quantizer.grid_rect(rect)

    # Descend to the smallest quadtree cell that encloses the whole
    # rectangle — the classic single-z-region approximation; the budgeted
    # cover below then refines within that cell.
    level, cx, cy = 0, 0, 0
    while level < bits:
        shift = bits - (level + 1)
        if (ix0 >> shift) != (ix1 >> shift) or (iy0 >> shift) != (iy1 >> shift):
            break
        cx = ix0 >> shift
        cy = iy0 >> shift
        level += 1

    regions: list[ZRegion] = []
    # Work queue of cells: (level, cx, cy) where (cx, cy) is the cell's
    # position in the level's grid.
    queue: list[tuple[int, int, int]] = [(level, cx, cy)]
    while queue:
        level, cx, cy = queue.pop()
        shift = bits - level
        cell_ix0 = cx << shift
        cell_iy0 = cy << shift
        cell_ix1 = cell_ix0 + (1 << shift) - 1
        cell_iy1 = cell_iy0 + (1 << shift) - 1
        # Disjoint from the rectangle?
        if cell_ix1 < ix0 or ix1 < cell_ix0 or cell_iy1 < iy0 or iy1 < cell_iy0:
            continue
        inside = (
            ix0 <= cell_ix0
            and cell_ix1 <= ix1
            and iy0 <= cell_iy0
            and cell_iy1 <= iy1
        )
        if inside or level == bits or len(regions) + len(queue) + 4 > max_regions:
            lo = _interleave(cell_ix0, cell_iy0, bits)
            regions.append(ZRegion(lo, lo + (1 << (2 * shift)) - 1, level))
            continue
        for dx in (0, 1):
            for dy in (0, 1):
                queue.append((level + 1, (cx << 1) | dx, (cy << 1) | dy))
    regions.sort()
    return _merge_adjacent(regions)


def _merge_adjacent(regions: list[ZRegion]) -> list[ZRegion]:
    """Merge z-contiguous regions into single intervals (fewer entries)."""
    merged: list[ZRegion] = []
    for region in regions:
        if merged and merged[-1].hi + 1 == region.lo:
            previous = merged[-1]
            merged[-1] = ZRegion(previous.lo, region.hi, min(previous.level, region.level))
        else:
            merged.append(region)
    return merged
