"""Synthetic administrative boundaries, rivers and railway tracks (*map 2*).

The paper's second map mixes three linear feature classes over the same
region as the street map:

* **boundary segments** — edges of rectangular administrative rings drawn
  around settlements (cities and districts); medium-length, axis-parallel;
* **river segments** — pieces of long meandering random walks crossing the
  region; curved, with fatter MBRs;
* **railway segments** — pieces of long, nearly straight walks connecting
  city pairs.

The class mix (60/25/15) is a free parameter of the substitution; what
matters for the reproduction is that map 2 clusters in the same places as
map 1 (settlements) while also containing long features that span many
street clusters — the workload property that makes some join tasks far more
expensive than others.

Like the street generator it runs the three stages of :mod:`.words` over one
private stream, a block of rings or whole walks at a time: a cursor pass,
then the floats in numpy, the walks' steps in lock-step across walks.  Its
three loops share the stream and with it the ``gauss`` spare, and the order
of their draws is pinned by digests.
"""

from __future__ import annotations

import math
import random
from functools import partial
from itertools import chain
from numbers import Real
from typing import Optional

import numpy as np

from ..geometry.table import BoxTable
from .region import Chain, Region, check_count, check_seed
from .words import BELOW_025, REDRAW_3, TWO_PI, WordStream, clamp, settlements, walk

__all__ = ["generate_boundaries"]

RIVER_STEP = 0.00038
RAIL_STEP = 0.0006

#: Words from a piece's ``randint`` word to its end: the word, then a new
#: Box–Muller pair on every even ``gauss`` call (one a step) — indexed by
#: the count's parity, then by ``getrandbits(2)``.
STEP_WORDS = tuple(
    tuple(1 + 4 * ((n + 1 - odd) // 2) for n in range(2, 6)) for odd in (0, 1)
)
#: Words of a ring — the flag, a rural x, y or the city and one pair, then
#: w, h — by the code byte of its first word.
RING_WORDS = tuple(10 if code & BELOW_025 else 12 for code in range(256))


def generate_boundaries(
    region: Region,
    count: int,
    seed: int,
    include_geometry: bool = False,
    mix: tuple[float, float, float] = (0.60, 0.25, 0.15),
) -> tuple[BoxTable, Optional[list[Chain]]]:
    """Generate *count* map-2 features — boundaries, then rivers, then
    railways — as one table plus, under *include_geometry* only, their
    point chains in row order."""
    check_count(count)
    if not (
        len(mix) == 3
        and all(isinstance(share, Real) and 0.0 <= share <= 1.0 for share in mix)
        and abs(sum(mix) - 1.0) <= 1e-9
    ):
        raise ValueError(
            f"mix must be three shares in [0, 1] that sum to 1, not {mix!r}"
        )
    check_seed(seed)
    stream = WordStream(random.Random(seed))
    boundaries = min(count, round(count * mix[0]))
    rivers = min(count, boundaries + round(count * mix[1]))
    columns = np.empty((4, count))
    chains: Optional[list[Chain]] = [] if include_geometry else None
    walk_cursor = partial(_walk_cursor, pieces=max(8, round(40 * math.sqrt(region.scale))))
    loops = (
        (boundaries, _ring_cursor, _ring_edges),
        (rivers, walk_cursor, partial(_walk_pieces, step=RIVER_STEP, curviness=0.5)),
        (count, walk_cursor, partial(_walk_pieces, step=RAIL_STEP, curviness=0.08)),
    )
    made = 0
    for until, cursor, floats in loops:
        while made < until:
            done, records = cursor(stream, until - made)
            floats(stream, region, records, columns[:, made : made + done], chains)
            made += done
            if made < until:
                stream.advance()
    return BoxTable(np.arange(count), *columns), chains


def _ring_cursor(stream: WordStream, todo: int) -> tuple[int, list]:
    """Walk rings until *todo* edges are covered: the edges the window
    held, and each ring's first word."""
    code, c = stream.code, stream.cursor
    rings: list[int] = []
    record, ring_words = rings.append, RING_WORDS
    try:
        for _ in range(0, todo, 4):
            c0 = c
            c += ring_words[code[c]]
            record(c0)
    except IndexError:
        c = c0
    stream.cursor = c
    return min(4 * len(rings), todo), rings


def _ring_edges(stream, region, records, columns, chains) -> None:
    """Edges of rectangular rings around settlement points, four rows a ring
    (the last ring maybe fewer): bottom, right, top, left."""
    if not records:
        return
    c0 = np.fromiter(records, np.int64, len(records))
    code = np.frombuffer(stream.code, np.uint8)
    side = region.side
    city = code[c0] & BELOW_025 == 0
    first = stream.gauss
    g0 = first + 2 * (np.cumsum(city) - city)
    z = stream.deviates(2 * int(city.sum()), (g0 + (g0 & 1))[city], c0[city] + 4)
    # sample_settlement_point(rng, rural_fraction=0.25)
    cx, cy = settlements(stream, region, c0, city, z[g0[city] - first], z[g0[city] + 1 - first])
    sizes = c0 + 6 + 2 * city
    w = 0.0006 + (0.002 - 0.0006) * stream.randoms(sizes)  # uniform(0.0006, 0.002)
    h = 0.0006 + (0.002 - 0.0006) * stream.randoms(sizes + 2)
    x0, y0 = clamp(cx - w / 2.0, side), clamp(cy - h / 2.0, side)
    x1, y1 = clamp(cx + w / 2.0, side), clamp(cy + h / 2.0, side)
    # x0 <= x1 and y0 <= y1: clamp is monotone
    edges = np.stack(
        ((x0, y0, x1, y0), (x1, y0, x1, y1), (x0, y1, x1, y1), (x0, y0, x0, y1)), axis=-1
    ).reshape(4, -1)
    rows = columns.shape[1]
    columns[:] = edges[:, :rows]
    if chains is not None:
        left, bottom, right, top = (v.tolist() for v in (x0, y0, x1, y1))
        corners = [list(zip(*xy)) for xy in ((left, bottom), (right, bottom), (right, top), (left, top))]
        lines = zip(*(zip(corners[edge], corners[(edge + 1) % 4]) for edge in range(4)))
        chains += list(chain.from_iterable(lines))[:rows]


def _walk_cursor(stream: WordStream, todo: int, pieces: int) -> tuple[int, tuple]:
    """Walk whole walks of up to *pieces* pieces until *todo* pieces are
    covered, keeping only the parity of the ``gauss`` count: the pieces the
    window held, each walk's first word and pieces, and the word each
    piece's ``_randbelow`` loop ended at."""
    code, c, odd = stream.code, stream.cursor, stream.gauss & 1
    walks: list[int] = []
    piece_ends: list[int] = []
    record = walks.extend
    even_steps, odd_steps = STEP_WORDS
    made = 0
    try:
        while made < todo:
            c0 = c
            length = min(pieces, todo - made)
            ends = []
            c += 6  # uniform x, y and the heading
            for _ in range(length):
                while code[c] >= REDRAW_3:  # randint(2, 4): 2 + _randbelow(3)
                    c += 1
                ends.append(c)
                bits = code[c] >> 4
                c += odd_steps[bits] if odd else even_steps[bits]
                odd ^= bits & 1  # 2 + bits steps, one gauss each
            record((c0, length))
            piece_ends += ends
            made += length
    except IndexError:
        c = c0
    stream.cursor = c
    return made, (walks, piece_ends)


def _walk_pieces(stream, region, records, columns, chains, step, curviness) -> None:
    """Pieces of long random walks (rivers / railways) across the region:
    each walk's steps in lock-step with the other walks', one row a piece;
    the stream's ``gauss`` count moves past their calls, one a step."""
    if not records[0]:
        return
    c0, lengths = np.array(records[0], np.int64).reshape(-1, 2).T
    ends = np.array(records[1], np.int64)
    side = region.side
    walks = len(c0)
    piece_walk = np.repeat(np.arange(walks), lengths)
    steps = 2 + stream.bits(ends, 2)
    # each step's walk, place in its walk, gauss call and pair word
    piece_first = np.cumsum(steps) - steps
    walk_first = piece_first[np.cumsum(lengths) - lengths]
    step_piece = np.repeat(np.arange(len(ends)), steps)
    step_walk = piece_walk[step_piece]
    first = stream.gauss
    call = first + np.arange(len(step_piece))
    place = call - first - walk_first[step_walk]
    in_piece = place - (piece_first - walk_first[piece_walk])[step_piece]
    piece_call = call - in_piece
    pair_at = ends[step_piece] + 1 + 4 * ((in_piece + 1 - (piece_call & 1)) // 2)
    new = call & 1 == 0
    z = stream.deviates(len(call), call[new], pair_at[new])

    x, y = side * stream.randoms(c0), side * stream.randoms(c0 + 2)
    heading = TWO_PI * stream.randoms(c0 + 4)
    turns = np.zeros((place.max() + 1, walks))
    turns[place, step_walk] = 0.0 + z[call - first] * curviness
    moves = np.zeros_like(turns)
    moves[place, step_walk] = step
    points = walk(side, x, y, heading, turns, moves)
    # a piece's points: rows start .. start + steps of its walk's column
    start = (piece_first - walk_first[piece_walk])[:, None]
    rows = np.minimum(start + np.arange(5), start + steps[:, None])
    piece_points = points[rows, :, piece_walk[:, None]]  # piece, point, x / y
    columns[:2], columns[2:] = piece_points.min(axis=1).T, piece_points.max(axis=1).T
    if chains is not None:
        xs, ys = piece_points[:, :, 0].tolist(), piece_points[:, :, 1].tolist()
        for piece_x, piece_y, length in zip(xs, ys, (steps + 1).tolist()):
            chains.append(tuple(zip(piece_x[:length], piece_y[:length])))
