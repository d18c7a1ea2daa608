"""Hostile arguments die at the generators' boundary: one ``ValueError``
each, naming the argument and the value — before a draw, before a fork."""

import math

import pytest

import repro.datagen.maps as maps_module
from repro.datagen import Region, generate_boundaries, generate_streets, paper_maps

REGION = Region(scale=0.02, seed=1)

BAD_SCALES = [math.nan, math.inf, -math.inf, 0, 0.0, -1.0, "1", None, 1j]
BAD_COUNTS = [-5, -1, 2.5, math.nan, "3", None]
BAD_SEEDS = [None, "a", 4.0, math.nan, 1j]  # None would seed from the OS
BAD_CITIES = [math.nan, 0, -3, 2.5, "36", None]
BAD_MIXES = [
    (1.2, -0.1, -0.1),  # sums to 1, used to be clipped in silence
    (0.5, 0.2, 0.2),
    (0.5, 0.5),
    (0.25, 0.25, 0.25, 0.25),
    (math.nan, 0.5, 0.5),
    (math.inf, 0.0, 0.0),
    ("0.6", 0.25, 0.15),
    (None, 0.5, 0.5),
]


@pytest.fixture
def no_fork(monkeypatch):
    def refuse(*args):
        raise AssertionError("a helper was forked for arguments nobody can use")

    monkeypatch.setattr(maps_module, "_Helper", refuse)


@pytest.mark.parametrize("scale", BAD_SCALES)
def test_scale(scale, no_fork):
    with pytest.raises(ValueError, match="^scale must be a finite positive") as caught:
        paper_maps(scale=scale)
    assert repr(scale) in str(caught.value)
    with pytest.raises(ValueError, match="^scale must"):
        Region(scale=scale)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_seed(seed, no_fork):
    calls = [
        lambda: paper_maps(scale=0.02, seed=seed),
        lambda: Region(scale=0.02, seed=seed),
        lambda: generate_streets(REGION, 10, seed),
        lambda: generate_boundaries(REGION, 10, seed),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^seed must be an integer") as caught:
            call()
        assert repr(seed) in str(caught.value)


@pytest.mark.parametrize("cities", BAD_CITIES)
def test_cities_per_unit(cities):
    with pytest.raises(ValueError, match="^cities_per_unit must be a positive") as caught:
        Region(scale=0.02, seed=1, cities_per_unit=cities)
    assert repr(cities) in str(caught.value)


@pytest.mark.parametrize("generate", [generate_streets, generate_boundaries])
@pytest.mark.parametrize("count", BAD_COUNTS)
def test_count(generate, count):
    with pytest.raises(ValueError, match="^count must be an integer >= 0") as caught:
        generate(REGION, count, seed=2)
    assert repr(count) in str(caught.value)


@pytest.mark.parametrize("mix", BAD_MIXES)
def test_mix(mix):
    with pytest.raises(ValueError, match="^mix must be three shares") as caught:
        generate_boundaries(REGION, 10, seed=3, mix=mix)
    assert repr(mix) in str(caught.value)


@pytest.mark.parametrize("generate", [generate_streets, generate_boundaries])
def test_the_edges_of_the_valid_range_stay_valid(generate):
    table, chains = generate(REGION, 0, seed=2)
    assert len(table) == 0 and chains is None
    assert len(generate(REGION, True + 2, seed=2)[0]) == 3  # any Integral
    by_bool, by_int = generate(REGION, 5, seed=True)[0], generate(REGION, 5, seed=1)[0]
    assert by_bool.items() == by_int.items()


def test_degenerate_mixes_are_mixes():
    for mix in [(1.0, 0.0, 0.0), (0, 0, 1), (0.0, 1.0, 0.0)]:
        assert len(generate_boundaries(REGION, 40, seed=3, mix=mix)[0]) == 40
