"""The simulated machine's settings are checked once, for every workload.

The join and the parallel window and kNN queries run on one
:class:`repro.join.parallel.MachineRun`; a processor count, disk count or
buffer size no machine can have is refused there with one ``ValueError``
naming the field and the value, before any simulated time passes.
"""

import random

import pytest

from repro.geometry import Rect
from repro.join import ParallelJoinConfig, parallel_spatial_join
from repro.query import ParallelQueryConfig, parallel_knn, parallel_window_query
from repro.rtree import str_bulk_load


@pytest.fixture(scope="module")
def tree():
    rng = random.Random(3)
    items = []
    for i in range(200):
        x, y = rng.uniform(0, 10), rng.uniform(0, 10)
        items.append((i, Rect(x, y, x + 0.5, y + 0.5)))
    return str_bulk_load(items, dir_capacity=8, data_capacity=8)


SIMULATORS = {
    "join": lambda t, **kw: parallel_spatial_join(t, t, ParallelJoinConfig(**kw)),
    "window": lambda t, **kw: parallel_window_query(
        t, Rect(0, 0, 5, 5), ParallelQueryConfig(**kw)
    ),
    "knn": lambda t, **kw: parallel_knn(t, 5.0, 5.0, 3, ParallelQueryConfig(**kw)),
}

#: (field, value) rows no machine can be built with
BAD = [
    ("processors", 0),
    ("processors", -2),
    ("processors", 2.5),
    ("processors", "4"),
    ("processors", True),
    ("disks", 0),
    ("disks", 1.5),
    ("disks", True),
    ("total_buffer_pages", 0),
    ("total_buffer_pages", -5),
    ("total_buffer_pages", 40.0),
    ("total_buffer_pages", True),
]


@pytest.mark.parametrize("simulator", sorted(SIMULATORS))
@pytest.mark.parametrize("name, value", BAD)
def test_a_bad_machine_setting_is_refused_by_name(tree, simulator, name, value):
    with pytest.raises(ValueError) as refused:
        SIMULATORS[simulator](tree, **{name: value})
    assert str(refused.value) == f"{name} must be an integer >= 1, got {value!r}"


@pytest.mark.parametrize("simulator", sorted(SIMULATORS))
def test_fewer_buffer_pages_than_processors_is_one_page_each(tree, simulator):
    # The per-processor floor: ``bench`` passes 4 pages for 8 processors.
    result = SIMULATORS[simulator](
        tree, processors=8, disks=8, total_buffer_pages=4
    )
    assert result.disk_accesses > 0
