"""The word stream of a generator's private ``random.Random``.

A generator's draws are its data set (``tests/datagen`` pins the digests),
but where each draw lands in the stream is decided by integers alone.
CPython builds every draw the generators make from 32-bit MT19937 words:

* ``random()`` is two words, ``((w[i] >> 5)·2^26 + (w[i+1] >> 6))·2^-53``;
* ``getrandbits(k)``, k ≤ 32, is the top k bits of one word, and
  ``_randbelow(n)`` draws ``getrandbits(n.bit_length())`` until it is
  below *n* (``randint`` and ``choice`` are spelled over it);
* on a private ``Random``, the j-th ``gauss`` call is the cosine (j even)
  or the sine (j odd) of Box–Muller pair j // 2, whose two ``random()``
  draws sit at the word where call 2·(j // 2) was made.

So a generator runs in three stages.  :class:`WordStream` draws the words
in blocks (``getrandbits(32·n)`` holds word i in bits 32i … 32i + 31) and
codes each in one byte: the three ``random() < t`` flags the generators
branch on and the word's top three bits.  A cursor-only Python pass over
those bytes, which touches no float, finds where each object starts, the
gauss count there and where its rejection loops end.  Then numpy computes
every float of the block's objects at once, from the words and with
CPython's own operations: IEEE arithmetic and comparisons, ``sqrt``,
``cos`` and ``sin`` (libm's, bit for bit — ``tests/datagen`` checks it on
the maps' own inputs), and ``math.log`` mapped over the pairs, since
numpy's vectorised ``log`` is not libm's on every build.  No coordinate
is ever ``-0.0`` (a sum is ``-0.0`` only when both terms are), so
``minimum`` / ``maximum`` give the floats the scalar clamps and
comparisons give.
"""

from __future__ import annotations

import math
from itertools import starmap

import numpy as np

__all__ = ["WordStream", "clamp", "settlements", "walk"]

#: Words drawn at a time: 256 KB of them, small enough that the allocator
#: reuses a block's temporaries instead of mapping and faulting them anew.
BLOCK = 1 << 16
#: The last words of a window get no code byte.  Every object reads a code
#: byte within *TAIL* words of its last word, so an object whose read falls
#: past the coded words (an ``IndexError``) is retried on the next window
#: and an object that read its bytes has all its words.
TAIL = 32

#: Code bits: ``random()`` drawn at this word is below 0.15 / 0.85 / 0.25.
BELOW_015, BELOW_085, BELOW_025 = 1, 2, 4
#: Bits 3–5 hold the word's top three bits, so ``getrandbits(3)`` is
#: ``code >> 3`` and ``getrandbits(2)`` is ``code >> 4``.  ``_randbelow(4)``
#: rejects a word whose code is at least *REDRAW_4*, ``_randbelow(3)`` one
#: at least *REDRAW_3*.
REDRAW_4, REDRAW_3 = 4 << 3, 6 << 3
_THRESHOLDS = ((0.15, BELOW_015), (0.85, BELOW_085), (0.25, BELOW_025))
_TIE = 64


def _code_table() -> np.ndarray:
    """The code byte of each top half of a word.  Where a threshold falls
    inside the half's range of ``random()`` values the flag is left open
    and :data:`_TIE` set: two halves in 65,536."""
    top = np.arange(1 << 16)
    table = (top >> 13 << 3).astype(np.uint8)
    for below, bit in _THRESHOLDS:
        edge = below * 65536.0
        table[top + 1 <= edge] |= bit
        table[(top < edge) & (edge < top + 1)] |= _TIE
    return table


_CODES = _code_table()

TWO_PI = 2.0 * math.pi  # random.py's TWOPI


class WordStream:
    """The MT19937 words of one private ``random.Random``, a window at a
    time, and the generators' shared place in them: the next word
    (:attr:`cursor`, window-relative), the ``gauss`` calls made so far
    (:attr:`gauss`) and, when that count is odd, the waiting sine
    (:attr:`spare`).  ``code[i]`` is word *i*'s code byte."""

    def __init__(self, rng):
        self._getrandbits = rng.getrandbits
        self.words = np.empty(0, np.uint32)
        self.code = b""
        self.cursor = 0
        self.gauss = 0
        self.spare = 0.0

    def advance(self) -> None:
        """Drop the words before the cursor and draw *BLOCK* more."""
        fresh = self._getrandbits(32 * BLOCK).to_bytes(4 * BLOCK, "little")
        words = np.concatenate((self.words[self.cursor :], np.frombuffer(fresh, "<u4")))
        coded = len(words) - TAIL
        code = _CODES[words[:coded] >> 16]
        tied = np.flatnonzero(code >= _TIE)
        # the 53-bit integer random() scales by 2**-53, compared exactly
        scaled = (words[tied] >> 5).astype(np.uint64) << np.uint64(26) | words[tied + 1] >> 6
        code[tied] &= ~np.uint8(_TIE | 7)
        for below, bit in _THRESHOLDS:
            code[tied[scaled < math.ceil(below * 2.0**53)]] |= bit
        self.words, self.code, self.cursor = words, code.tobytes(), 0

    def randoms(self, at) -> np.ndarray:
        """``random()`` drawn at each word of *at*."""
        first = (self.words[at] >> 5).astype(np.float64)
        second = (self.words[at + 1] >> 6).astype(np.float64)
        return (first * 67108864.0 + second) * (1.0 / 9007199254740992.0)

    def bits(self, at, k: int) -> np.ndarray:
        """``getrandbits(k)`` drawn at each word of *at*."""
        return (self.words[at] >> (32 - k)).astype(np.int64)

    def deviates(self, count: int, calls, at) -> np.ndarray:
        """The unit values of the next *count* ``gauss`` calls, indexed by
        call minus the count before them, which they advance.  *calls* are
        the even calls among them, *at* the words each drew its pair at;
        an odd first call takes the spare the last block left."""
        first = self.gauss
        self.gauss += count
        base = first // 2
        pairs = (self.gauss + 1) // 2 - base
        where = np.zeros(pairs, np.int64)
        where[calls // 2 - base] = at
        x2pi = self.randoms(where) * TWO_PI
        radii = zip((1.0 - self.randoms(where + 2)).tolist())
        g2rad = np.sqrt(-2.0 * np.fromiter(starmap(math.log, radii), np.float64, pairs))
        values = np.empty(2 * pairs)
        values[0::2] = np.cos(x2pi) * g2rad
        values[1::2] = np.sin(x2pi) * g2rad
        if first & 1:
            values[1] = self.spare
        if self.gauss & 1:
            self.spare = values[-1]
        return values[first & 1 :]


def clamp(values: np.ndarray, side: float) -> np.ndarray:
    """``Region.clamp`` on one coordinate, in place."""
    return np.minimum(np.maximum(values, 0.0, out=values), side, out=values)


def settlements(stream: WordStream, region, flags, city, zx, zy) -> tuple[np.ndarray, np.ndarray]:
    """``Region.sample_settlement_point`` drawn after the flag at each word
    of *flags*: a rural point, or — where *city* — the city its ``random()``
    picks, moved by the city's two unit deviates *zx*, *zy* and clamped."""
    side = region.side
    drawn = stream.randoms(flags + 2)
    x, y = side * drawn, np.empty(len(flags))
    rural = ~city
    y[rural] = side * stream.randoms(flags[rural] + 4)
    cumulative = np.array(region.cumulative[: len(region.cities) - 1])
    index = np.searchsorted(cumulative, drawn[city])  # Region.pick_city
    centers = np.array(region.cities)[index]
    sigma = np.array(region.city_sigmas)[index]
    x[city] = clamp(centers[:, 0] + zx * sigma, side)
    y[city] = clamp(centers[:, 1] + zy * sigma, side)
    return x, y


def walk(side: float, x, y, heading, turns, lengths) -> np.ndarray:
    """Walks in lock-step, one a column: each starts at ``(x, y)`` facing
    *heading*; at step t it turns by ``turns[t]`` and moves ``lengths[t]``,
    clamped to the region.  Returns the points, ``[t, 0]`` the x and
    ``[t, 1]`` the y after t steps.  A padded step turns and moves by 0.0
    and repeats the point: its length is 0.0, a real one's never is."""
    headings = np.add.accumulate(np.vstack((heading, turns)), axis=0)[1:]
    moving = lengths != 0.0
    moves = np.zeros((len(turns), 2, len(x)))
    np.cos(headings, out=moves[:, 0], where=moving)
    np.sin(headings, out=moves[:, 1], where=moving)
    moves *= lengths[:, None]
    points = np.empty((len(turns) + 1, 2, len(x)))
    points[0] = x, y
    for step, move in enumerate(moves):
        point = np.add(points[step], move, out=points[step + 1])
        np.minimum(np.maximum(point, 0.0, out=point), side, out=point)  # clamp
    return points
