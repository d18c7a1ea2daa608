"""The word-stream spellings against the ``random.Random`` methods.

The generators draw their private stream's MT19937 words in bulk
(:class:`repro.datagen.words.WordStream`) and read every draw from them:
``random()`` from two words, ``getrandbits(2)`` / ``getrandbits(3)`` from
one, the ``_randbelow`` rejection loops of ``randint`` / ``choice`` over
the code bytes, and the j-th ``gauss`` from Box–Muller pair j // 2.  Each
spelling must return the method's value (``==`` on the floats, no
tolerance) and use the words the method uses — alone, interleaved with
the others, and across the edge of a block."""

import math
import random

import numpy as np
import pytest

from repro.datagen import Region, generate_boundaries, generate_streets, words
from repro.datagen.words import (
    BELOW_015,
    BELOW_025,
    BELOW_085,
    REDRAW_3,
    REDRAW_4,
    TWO_PI,
    WordStream,
)

from .test_generator_loops import (
    GRID_ANGLES,
    assert_rows_are_the_chains_mbrs,
    reference_boundaries,
)

SEED = 2024
DRAWS = 10_000
SIDE = math.sqrt(0.37)


def stream_and_twin(seed=SEED):
    """A stream with one block drawn, and a ``Random`` at its first word."""
    stream = WordStream(random.Random(seed))
    stream.advance()
    return stream, random.Random(seed)


def next_word(twin):
    return twin.getrandbits(32)


def test_the_bulk_words_are_successive_getrandbits():
    stream, twin = stream_and_twin()
    first = stream.words.tolist()
    assert first == [next_word(twin) for _ in range(words.BLOCK)]
    stream.cursor = words.BLOCK - 100  # keep a tail, draw the next block
    stream.advance()
    assert stream.words[:100].tolist() == first[-100:]
    assert stream.words[100:].tolist() == [next_word(twin) for _ in range(words.BLOCK)]


def test_random_is_two_words():
    stream, twin = stream_and_twin()
    drawn = stream.randoms(np.arange(0, 2 * DRAWS, 2))
    assert drawn.tolist() == [twin.random() for _ in range(DRAWS)]
    assert next_word(twin) == stream.words[2 * DRAWS]


@pytest.mark.parametrize("k", [2, 3])
def test_getrandbits_is_one_word(k):
    stream, twin = stream_and_twin()
    assert stream.bits(np.arange(DRAWS), k).tolist() == [
        twin.getrandbits(k) for _ in range(DRAWS)
    ]
    assert next_word(twin) == stream.words[DRAWS]


class Reader:
    """The generators' spellings one draw at a time: a cursor over a
    stream's words, and the ``gauss`` spare of the last pair."""

    def __init__(self, stream):
        self.stream, self.c, self.spare = stream, 0, None

    def random(self):
        value = self.stream.randoms(np.array([self.c]))[0]
        self.c += 2
        return value

    def below(self, redraw, shift):
        """``_randbelow(3)`` (*redraw* REDRAW_3) or ``_randbelow(4)``."""
        while self.stream.code[self.c] >= redraw:
            self.c += 1
        self.c += 1
        return self.stream.code[self.c - 1] >> shift

    def gauss(self, mu, sigma):
        if self.spare is None:  # an even call: a new pair at the cursor
            call = np.array([self.stream.gauss])
            z, self.spare = self.stream.deviates(2, call, np.array([self.c]))
            self.c += 4
        else:
            z, self.spare = self.spare, None
        return mu + z * sigma


#: name -> (the method on a ``Random``, the spelling over a :class:`Reader`)
FORMS = {
    "uniform(0, side)": (lambda rng: rng.uniform(0, SIDE), lambda r: SIDE * r.random()),
    "uniform(0.0, 2 pi)": (
        lambda rng: rng.uniform(0.0, 2.0 * math.pi),
        lambda r: TWO_PI * r.random(),
    ),
    "uniform(0.5, 1.5)": (lambda rng: rng.uniform(0.5, 1.5), lambda r: 0.5 + r.random()),
    "uniform(0.0006, 0.002)": (
        lambda rng: rng.uniform(0.0006, 0.002),
        lambda r: 0.0006 + (0.002 - 0.0006) * r.random(),
    ),
    "randint(1, 3)": (lambda rng: rng.randint(1, 3), lambda r: 1 + r.below(REDRAW_3, 4)),
    "randint(2, 4)": (lambda rng: rng.randint(2, 4), lambda r: 2 + r.below(REDRAW_3, 4)),
    "choice(grid_angles)": (
        lambda rng: rng.choice(GRID_ANGLES),
        lambda r: GRID_ANGLES[r.below(REDRAW_4, 3)],
    ),
    "gauss(0.0, 0.15)": (lambda rng: rng.gauss(0.0, 0.15), lambda r: r.gauss(0.0, 0.15)),
    "gauss(cx, sigma)": (lambda rng: rng.gauss(0.41, 0.033), lambda r: r.gauss(0.41, 0.033)),
}


def assert_same_draws(schedule):
    """Run *schedule* (form names) by method on one generator and by
    spelling over the words of another started from the same state."""
    by_method = random.Random(SEED)
    by_method.random()  # any state but a fresh seed's
    spelled = random.Random()
    spelled.setstate(by_method.getstate())
    stream = WordStream(spelled)
    stream.advance()
    reader = Reader(stream)
    for step, name in enumerate(schedule):
        method, spelling = FORMS[name]
        assert spelling(reader) == method(by_method), (step, name)
    # the same words consumed; a spare waiting is held by each, not a word
    assert next_word(by_method) == stream.words[reader.c]


@pytest.mark.parametrize("name", sorted(FORMS))
def test_each_spelling_alone(name):
    assert_same_draws([name] * DRAWS)


def test_interleaved_the_spare_crosses_the_other_draws():
    names = sorted(FORMS)
    picker = random.Random(7)
    schedule = [picker.choice(names) for _ in range(DRAWS)]
    gausses = [i for i, name in enumerate(schedule) if name.startswith("gauss")]
    # some spare waits while random() and getrandbits() are both drawn
    assert any(
        {"uniform(0.5, 1.5)", "randint(1, 3)"} <= set(schedule[first:second])
        for first, second in zip(gausses[::2], gausses[1::2])
    )
    assert_same_draws(schedule + ["gauss(0.0, 0.15)"] * 2)


def test_the_code_flags_are_random_below_the_thresholds():
    stream, _ = stream_and_twin()
    code = np.frombuffer(stream.code, np.uint8)
    drawn = stream.randoms(np.arange(len(code)))
    for below, bit in ((0.15, BELOW_015), (0.85, BELOW_085), (0.25, BELOW_025)):
        assert np.array_equal(code & bit != 0, drawn < below), below
    assert np.array_equal(code >> 3, stream.bits(np.arange(len(code)), 3))
    # some words fall in a top half the threshold cuts: the exact check ran
    halves = stream.words[: len(code)] >> 16
    assert np.isin(halves, [int(0.15 * 65536), int(0.85 * 65536)]).any()


def deviates_of(schedule, stream):
    """Walk *schedule* ("random" / "gauss") over the stream's words as the
    generators do, in two blocks split mid-way; the gauss values."""
    values, c, call = [], 0, 0
    half = len(schedule) // 2
    for part in (schedule[:half], schedule[half:]):
        first, sites, pairs_at = call, [], []
        for name in part:
            if name == "random":
                c += 2
            else:
                if call % 2 == 0:  # a new pair: two random() draws
                    sites.append(call)
                    pairs_at.append(c)
                    c += 4
                call += 1
        z = stream.deviates(call - first, np.array(sites, np.int64), np.array(pairs_at, np.int64))
        values += z[: call - first].tolist()
    return values, c


@pytest.mark.parametrize("pattern", ["gauss only", "interleaved"])
def test_gauss_j_is_the_cos_or_sin_of_pair_j_halved(pattern):
    if pattern == "gauss only":
        schedule = ["gauss"] * 2001  # an odd first half: the spare crosses
    else:
        picker = random.Random(7)
        schedule = [picker.choice(["random", "gauss"]) for _ in range(DRAWS)]
    stream, twin = stream_and_twin()
    values, used = deviates_of(schedule, stream)
    expected = []
    for name in schedule:
        if name == "random":
            twin.random()
        else:
            expected.append(twin.gauss(0.0, 1.0))
    assert values == expected
    # the words the twin used, its spare (if any) held inside it
    assert next_word(twin) == stream.words[used]


@pytest.mark.parametrize("block", [64, 301])
def test_the_edge_of_a_block_moves_no_row(monkeypatch, block):
    """Blocks small enough that rings, streets and whole walks straddle
    their edges, and a walk outgrows one: the rows and chains stay."""
    region = Region(scale=0.02, seed=11)
    default = (
        generate_streets(region, 400, 12, True),
        generate_boundaries(region, 401, 13, True, (0.2, 0.3, 0.5)),
    )
    monkeypatch.setattr(words, "BLOCK", block)
    small = (
        generate_streets(region, 400, 12, True),
        generate_boundaries(region, 401, 13, True, (0.2, 0.3, 0.5)),
    )
    for (table, chains), (small_table, small_chains) in zip(default, small):
        assert_rows_are_the_chains_mbrs(small_table, chains)
        assert small_chains == chains


@pytest.mark.parametrize("count, parity", [(303, 1), (300, 0)])
def test_the_spare_is_handed_from_the_rivers_to_the_railways(count, parity):
    """One stream owns the spare across map 2's three loops.  The ring
    loop draws ``gauss`` in pairs and always ends without one; the river
    loop draws one a step, so it hands its spare to the railway loop
    whenever its steps are odd in number — a loop that started over with a
    fresh spare would draw two more words there and every later row would
    move."""
    region = Region(scale=0.02, seed=11)
    mix = (0.2, 0.3, 0.5)
    reference = reference_boundaries(region, count, 13, mix)
    first_river = round(count * mix[0])
    first_railway = first_river + round(count * mix[1])
    river_steps = sum(len(chain) - 1 for chain in reference[first_river:first_railway])
    assert river_steps % 2 == parity
    table, chains = generate_boundaries(region, count, 13, True, mix)
    assert_rows_are_the_chains_mbrs(table, reference)
    assert chains == reference
