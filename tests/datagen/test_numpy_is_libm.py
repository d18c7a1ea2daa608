"""numpy's float64 ``cos``, ``sin`` and ``sqrt`` are libm's, bit for bit, on
the inputs the generators give them.

The generators compute every float in numpy, and ``random.gauss`` and the
scalar rule in ``tests/datagen/test_generator_loops.py`` call ``math.cos``
/ ``math.sin`` / ``math.sqrt``.  A numpy build whose float64 trig is not
libm's (a vectorised kernel, say) fails here by name, where otherwise only
the golden digests would move.  ``log`` is not asked of numpy: the
generators map ``math.log``, since numpy's vectorised ``log`` differs from
libm's on some builds."""

import math

import numpy as np
import pytest

from repro.datagen import MAP1_COUNT, MAP2_COUNT, Region, generate_boundaries
from repro.datagen import generate_streets, words

SCALE, SEED = 0.02, 42


class Recording:
    """numpy, with the arguments of ``cos`` / ``sin`` / ``sqrt`` kept."""

    def __init__(self):
        self.seen = {"cos": [], "sin": [], "sqrt": []}

    def __getattr__(self, name):
        function = getattr(np, name)
        if name not in self.seen:
            return function

        def recorded(values, *args, **kwargs):
            self.seen[name].append(np.array(values, dtype=np.float64).ravel())
            return function(values, *args, **kwargs)

        return recorded


@pytest.fixture(scope="module")
def inputs():
    """Every argument the generators of ``paper_maps(0.02, 42)`` hand to
    numpy's cos, sin and sqrt: the pairs' angles and radii, the headings."""
    recording = Recording()
    patch = pytest.MonkeyPatch()
    patch.setattr(words, "np", recording)
    try:
        region = Region(SCALE, SEED)
        generate_streets(region, round(MAP1_COUNT * SCALE), SEED + 1)
        generate_boundaries(region, round(MAP2_COUNT * SCALE), SEED + 2)
    finally:
        patch.undo()
    return {name: np.concatenate(seen) for name, seen in recording.seen.items()}


@pytest.mark.parametrize("name", ["cos", "sin", "sqrt"])
def test_numpy_float64_is_libm_on_the_maps_inputs(inputs, name):
    values = inputs[name]
    assert len(values) > 5_000
    by_numpy = getattr(np, name)(values)
    by_math = np.fromiter(map(getattr(math, name), values.tolist()), np.float64, len(values))
    differ = np.flatnonzero(by_numpy.view(np.int64) != by_math.view(np.int64))
    assert not len(differ), (
        f"np.{name} differs from math.{name} on {len(differ)} of {len(values)} "
        f"inputs, first {values[differ[0]]!r}"
    )
