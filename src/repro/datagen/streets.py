"""Synthetic street segments — the stand-in for the paper's *map 1*.

TIGER street records are short polylines following a mostly rectilinear
street grid.  Each generated street starts at a settlement point, picks a
grid direction (axis-parallel with jitter, occasionally diagonal) and walks
one to three short steps.  Streets therefore produce small, thin, heavily
clustered MBRs — the MBR population whose skew drives the paper's task
imbalance.

The rule is the one ``tests/datagen`` states with the :class:`Region`
methods and ``random.Random``'s own wrappers; it runs in the three stages
of :mod:`.words`, a block of streets at a time: a cursor pass that finds
where each street starts in the word stream, then every street's floats in
numpy, its steps in lock-step with the other streets'.  The order in which
the draws are consumed *is* the data set (digests are pinned there too):
reorder no draw.
"""

from __future__ import annotations

import math
import random
from typing import Optional

import numpy as np

from ..geometry.table import BoxTable
from .region import Chain, Region, check_count, check_seed
from .words import BELOW_015, BELOW_085, REDRAW_3, REDRAW_4, TWO_PI, WordStream, settlements, walk

__all__ = ["generate_streets", "street_part"]

#: Mean street-segment step length, absolute units of the unit-scale region.
STEP_LENGTH = 0.00009

GRID_ANGLES = np.array((0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0))

#: Words from a street's ``randint`` word to its end: the word, then per
#: step a ``random()`` and, on every even ``gauss`` call, a new Box–Muller
#: pair — indexed by the count's parity, then by ``getrandbits(2)``.
STEP_WORDS = tuple(
    tuple(1 + 2 * n + 4 * ((n + 1 - odd) // 2) for n in range(1, 5)) for odd in (0, 1)
)
#: Words of the settlement, by the code byte of its first word.
SETTLEMENT_WORDS = tuple(6 if code & BELOW_015 else 8 for code in range(256))


#: The share of the streets that :func:`.maps.paper_maps`' helper generates
#: after map 2, while the caller skips them and generates the rest: about
#: what levels the two processes' work.
HEAD_SHARE = 0.4


def generate_streets(
    region: Region,
    count: int,
    seed: int,
    include_geometry: bool = False,
) -> tuple[BoxTable, Optional[list[Chain]]]:
    """Generate *count* streets over *region*: their boxes as one table
    (object ids run from 0 to ``count - 1``) and, under *include_geometry*
    only, their point chains in row order.  Deterministic for a given
    ``(region, count, seed)``; keeping the geometry perturbs no draw."""
    check_count(count)
    check_seed(seed)
    columns = np.empty((4, count))
    chains: Optional[list[Chain]] = [] if include_geometry else None
    _generate(WordStream(random.Random(seed)), region, count, columns, chains)
    return BoxTable(np.arange(count), *columns), chains


def street_part(region: Region, count: int, seed: int, include_geometry: bool, columns, head: bool):
    """The head or the tail of ``generate_streets(region, count, seed)``:
    its rows written into *columns* (four columns of *count* rows), and
    ``(split, chains)``.  The head is the streets before the split: the
    first street from about :data:`HEAD_SHARE` of *count* on that starts
    with an even ``gauss`` count, so the tail, which passes the head's
    streets with the cursor alone, starts with no spare waiting."""
    stream = WordStream(random.Random(seed))
    chains: Optional[list[Chain]] = [] if include_geometry else None
    split = round(count * HEAD_SHARE)
    _generate(stream, region, split, columns[:, :split] if head else None, chains)
    while split < count and stream.gauss & 1:
        _generate(stream, region, 1, columns[:, split : split + 1] if head else None, chains)
        split += 1
    if not head:
        _generate(stream, region, count - split, columns[:, split:], chains)
    return split, chains


def _generate(stream: WordStream, region: Region, todo: int, columns, chains) -> None:
    """The next *todo* streets of *stream* into *columns* (four columns of
    *todo* rows) and *chains*; with *columns* None, past them: the cursor
    pass alone, and the ``gauss`` count it moved."""
    made = 0
    while True:
        done, starts = _cursor(stream, todo - made)
        if columns is None:
            stream.gauss += int(_unpack(stream, starts)[-1].sum())
        else:
            _streets(stream, region, starts, columns[:, made : made + done], chains)
        made += done
        if made == todo:
            return
        stream.advance()


def _cursor(stream: WordStream, todo: int) -> tuple[int, list]:
    """Walk up to *todo* streets through the coded words, keeping only the
    parity of the ``gauss`` count: how many the window held, and for each
    its first word and the words its two ``_randbelow`` loops ended at (-1:
    no ``choice`` drawn).  The cursor is left at the first street the
    window did not hold."""
    code, c, odd = stream.code, stream.cursor, stream.gauss & 1
    starts: list[int] = []
    record, settlement = starts.extend, SETTLEMENT_WORDS
    even_steps, odd_steps = STEP_WORDS
    try:
        for _ in range(todo):
            c0 = c
            c += settlement[code[c]]  # rural x, y, or the city and one pair
            if code[c] & BELOW_085:
                c += 2
                while code[c] >= REDRAW_4:  # choice: _randbelow(4)
                    c += 1
                grid = c
                if odd:  # the spare
                    c += 1
                    odd = 0
                else:  # a new pair
                    c += 5
                    odd = 1
            else:
                grid = -1
                c += 4  # the flag, uniform(0, 2 pi)
            while code[c] >= REDRAW_3:  # randint(1, 3): 1 + _randbelow(3)
                c += 1
            record((c0, grid, c))
            bits = code[c] >> 4
            c += odd_steps[bits] if odd else even_steps[bits]
            odd ^= ~bits & 1  # 1 + bits steps, one gauss each
    except IndexError:
        c = c0
    stream.cursor = c
    return len(starts) // 3, starts


def _unpack(stream: WordStream, starts: list):
    """The records of :func:`_cursor` as columns, what they imply — city
    or rural, on the grid or not, the steps — and each street's ``gauss``
    calls."""
    c0, grid_at, steps_at = np.fromiter(starts, np.int64, len(starts)).reshape(-1, 3).T
    city = np.frombuffer(stream.code, np.uint8)[c0] & BELOW_015 == 0
    on_grid = grid_at >= 0
    steps = 1 + stream.bits(steps_at, 2)
    return c0, grid_at, steps_at, city, on_grid, steps, 2 * city + on_grid + steps


def _streets(stream, region, starts, columns, chains) -> None:
    """The floats of the streets *starts* recorded into *columns*, and their
    chains; the stream's ``gauss`` count moves past their calls."""
    if not starts:
        return
    c0, grid_at, steps_at, city, on_grid, steps, calls = _unpack(stream, starts)
    n = len(c0)
    side = region.side
    first = stream.gauss
    g0 = first + np.cumsum(calls) - calls
    sites, pairs_at = [], []  # the even gauss calls and their words

    # Region.sample_settlement_point: the city streets draw one pair for x, y
    g = g0 + 2 * city
    sites.append((g0 + (g0 & 1))[city])
    pairs_at.append(c0[city] + 4)
    # the heading: choice(grid angles) + gauss(0, 0.06), or uniform(0, 2 pi)
    heading_call = g[on_grid]
    new = heading_call & 1 == 0
    sites.append(heading_call[new])
    pairs_at.append(grid_at[on_grid][new] + 1)
    # randint(1, 3) steps, each a random() and then a gauss call
    g = g + on_grid
    t = np.arange(3)[:, None]
    moving = t < steps
    step_call = g + t
    step_at = steps_at + 1 + 2 * t + 4 * ((t + 1 - (g & 1)) // 2)
    new = moving & (step_call & 1 == 0)
    sites.append(step_call[new])
    pairs_at.append(step_at[new] + 2)
    z = stream.deviates(int(calls.sum()), np.concatenate(sites), np.concatenate(pairs_at))

    x, y = settlements(stream, region, c0, city, z[g0[city] - first], z[g0[city] + 1 - first])
    heading = np.empty(n)
    off_grid = ~on_grid
    heading[off_grid] = TWO_PI * stream.randoms(c0[off_grid] + 8 + 2 * city[off_grid])
    heading[on_grid] = GRID_ANGLES[stream.bits(grid_at[on_grid], 3)] + (
        0.0 + z[heading_call - first] * 0.06
    )
    lengths, turns = np.zeros((3, n)), np.zeros((3, n))
    lengths[moving] = (0.5 + stream.randoms(step_at[moving])) * STEP_LENGTH
    turns[moving] = 0.0 + z[step_call[moving] - first] * 0.15
    points = walk(side, x, y, heading, turns, lengths)
    columns[:2], columns[2:] = points.min(axis=0), points.max(axis=0)
    if chains is not None:
        xs, ys = points[:, 0].T.tolist(), points[:, 1].T.tolist()
        for street_xs, street_ys, length in zip(xs, ys, (steps + 1).tolist()):
            chains.append(tuple(zip(street_xs[:length], street_ys[:length])))
