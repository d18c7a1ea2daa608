"""Work counts of the paper's join paths, pinned as upper bounds.

Each path runs once uncounted (first-call imports and caches are not its
work), then once under :func:`repro.bench.counts.count_work`, on the paper
maps at scale 0.05, seed 42.  A pin is a count per unit of work — per node
pair visited for the node join, per candidate for the others — and the
bound is the pin times :data:`SLACK`.  A change that lowers a count
lowers its pin with it; one that raises a pin names the cause.
"""

import pytest

from repro.bench.counts import count_work
from repro.bench.figures import ROOT_POLICY
from repro.bench.harness import scaled_pages
from repro.datagen import build_tree, paper_maps
from repro.join import GD, LSR, ParallelJoinConfig, flat_join, parallel_spatial_join
from repro.join import prepare_trees, sequential_join
from repro.rtree import build_flat_tree

SCALE = 0.05
SLACK = 1.05
NODE_PAIRS = 1482
CANDIDATES = 5058

#: path -> (python calls, C calls, live blocks, peak bytes), each per unit
#: of work.  Python calls leave out comprehension frames (see
#: repro.bench.counts); with them, the node join makes 10.67 a node pair.
#: The flat join's live blocks move from run to run (50-66 here: numpy
#: keeps a cache of small buffers), so that one is not pinned.
PINS = {
    "sequential_join[node]": (6.660, 20.01, 0.09177, 173.4),
    "flat_join": (0.05675, 0.04745, None, 828.5),
    "gd8": (40.20, 23.67, 0.3053, 254.4),
    "fig5[lsr, n=24, 200 pages]": (65.58, 22.83, 0.4734, 658.1),
}


@pytest.fixture(scope="module")
def paths():
    map1, map2 = paper_maps(scale=SCALE, seed=42)
    node = (build_tree(map1), build_tree(map2))
    store = prepare_trees(*node)
    flat = (build_flat_tree(map1), build_flat_tree(map2))

    def simulate(**settings):
        config = ParallelJoinConfig(**settings)
        return lambda: parallel_spatial_join(*node, config, page_store=store)

    return {
        "sequential_join[node]": (lambda: sequential_join(*node), "node_pairs_visited"),
        "flat_join": (lambda: flat_join(*flat), "candidates"),
        "gd8": (
            simulate(processors=8, disks=8, total_buffer_pages=800, variant=GD),
            "candidates",
        ),
        "fig5[lsr, n=24, 200 pages]": (
            simulate(
                processors=24,
                disks=24,
                total_buffer_pages=scaled_pages(200, SCALE),
                variant=LSR,
                reassignment=ROOT_POLICY,
            ),
            "candidates",
        ),
    }


def measure(run):
    run()
    return count_work(run)


@pytest.mark.parametrize("path", sorted(PINS))
def test_work_stays_within_its_pin(paths, path):
    run, unit = paths[path]
    result, work = measure(run)
    units = getattr(result, unit)
    assert units == (NODE_PAIRS if unit == "node_pairs_visited" else CANDIDATES)
    counted = (work.python_calls, work.c_calls, work.blocks, work.peak_bytes)
    per_unit = [count / units for count in counted]
    names = ("python calls", "C calls", "blocks", "peak bytes")
    over = {
        name: (round(value, 5), pin)
        for name, value, pin in zip(names, per_unit, PINS[path])
        if pin is not None and value > pin * SLACK
    }
    assert not over, f"{path}: per {unit} (count, pin) over the bound: {over}"


def test_two_runs_count_the_same_calls(paths):
    """Calls repeat exactly; memory moves by a few bytes (free lists)."""
    run, _ = paths["sequential_join[node]"]
    _, first = measure(run)
    _, second = count_work(run)
    assert first.frames == second.frames
    assert (first.python_calls, first.c_calls) == (second.python_calls, second.c_calls)
