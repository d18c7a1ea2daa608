"""Each inline spelling against the ``random.Random`` method it replaces.

The generators' loops consume ``random()`` and ``getrandbits()`` directly
and spell the arithmetic of ``uniform`` / ``randint`` / ``choice`` / ``gauss``
where it is used.  The forms below are those spellings, as the loops write
them; each must return the method's value (``==`` on the floats, no
tolerance) and leave the generator where the method leaves it — the same
words consumed — alone and interleaved with the others, so a ``gauss``
spare is carried across ``random()`` and ``getrandbits()`` draws."""

import math
import random

import pytest

from repro.datagen import Region, generate_boundaries
from repro.datagen.region import gauss_from

from .test_generator_loops import (
    GRID_ANGLES,
    assert_rows_are_the_chains_mbrs,
    reference_boundaries,
)

DRAWS = 10_000
SIDE = math.sqrt(0.37)
TWO_PI = 2.0 * math.pi


def below(getrandbits, bits, n):
    while (r := getrandbits(bits)) >= n:
        pass
    return r


#: name -> (the method on a ``Random``, the spelling over its bound draws)
FORMS = {
    "uniform(0, side)": (
        lambda rng: rng.uniform(0, SIDE),
        lambda random_, getrandbits, gauss: SIDE * random_(),
    ),
    "uniform(0.0, 2 pi)": (
        lambda rng: rng.uniform(0.0, 2.0 * math.pi),
        lambda random_, getrandbits, gauss: TWO_PI * random_(),
    ),
    "uniform(0.5, 1.5)": (
        lambda rng: rng.uniform(0.5, 1.5),
        lambda random_, getrandbits, gauss: 0.5 + random_(),
    ),
    "uniform(0.0006, 0.002)": (
        lambda rng: rng.uniform(0.0006, 0.002),
        lambda random_, getrandbits, gauss: 0.0006 + (0.002 - 0.0006) * random_(),
    ),
    "randint(1, 3)": (
        lambda rng: rng.randint(1, 3),
        lambda random_, getrandbits, gauss: 1 + below(getrandbits, 2, 3),
    ),
    "randint(2, 4)": (
        lambda rng: rng.randint(2, 4),
        lambda random_, getrandbits, gauss: 2 + below(getrandbits, 2, 3),
    ),
    "choice(grid_angles)": (
        lambda rng: rng.choice(GRID_ANGLES),
        lambda random_, getrandbits, gauss: GRID_ANGLES[below(getrandbits, 3, 4)],
    ),
    "gauss(0.0, 0.15)": (
        lambda rng: rng.gauss(0.0, 0.15),
        lambda random_, getrandbits, gauss: gauss(0.0, 0.15),
    ),
    "gauss(cx, sigma)": (
        lambda rng: rng.gauss(0.41, 0.033),
        lambda random_, getrandbits, gauss: gauss(0.41, 0.033),
    ),
}


def assert_same_draws(schedule):
    """Run *schedule* (form names) by method on one generator and by
    spelling on another started from the same state."""
    by_method = random.Random(2024)
    by_method.random()  # any state but a fresh seed's
    spelled = random.Random()
    spelled.setstate(by_method.getstate())
    draws = (spelled.random, spelled.getrandbits, gauss_from(spelled.random))
    for step, name in enumerate(schedule):
        method, spelling = FORMS[name]
        assert spelling(*draws) == method(by_method), (step, name)
    # the Mersenne Twister's words and position; the spare (the third item
    # of the state) is the closure's now, and the last draws compared it
    assert spelled.getstate()[1] == by_method.getstate()[1]


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


@pytest.mark.parametrize("count, parity", [(303, 1), (300, 0)])
def test_the_spare_is_handed_from_the_rivers_to_the_railways(count, parity):
    """One ``Random`` owned the spare across map 2's three loops.  The ring
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
