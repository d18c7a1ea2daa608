"""Work counts of the paper's join and query paths, pinned as upper bounds.

Each path runs once uncounted (first-call imports and caches are not its
work), then once under :func:`repro.bench.counts.count_work`, on the paper
maps at scale 0.05, seed 42 (the z-order join at 0.02).  A pin is a count
per unit of work — per node pair visited for the node join, per candidate
for the other joins, per request for the window and kNN queries and the
serving tiers — and the
bound is the pin times :data:`SLACK`.  A change that lowers a count lowers
its pin with it; one that raises a pin names the cause.
"""

import asyncio
import random

import pytest

from repro.bench.counts import count_work
from repro.bench.figures import ROOT_POLICY
from repro.bench.harness import scaled_pages
from repro.datagen import build_tree, paper_maps
from repro.geometry import Rect
from repro.join import GD, LSR, ParallelJoinConfig, flat_join, parallel_spatial_join
from repro.join import prepare_trees, sequential_join
from repro.query.batch import multi_window_query
from repro.rtree import build_flat_tree, nearest_neighbors
from repro.service import Engine, EngineConfig, WindowRequest
from repro.shard import ShardConfig, ShardRouter
from repro.zorder import zorder_join

SCALE = 0.05
SLACK = 1.05
NODE_PAIRS = 1482
CANDIDATES = 5058
#: The z-order join runs at 0.02, where it finds 1,354 candidates: at 0.05
#: it would add some 10 s to tier-1.
ZORDER_SCALE = 0.02
ZORDER_CANDIDATES = 1354
#: Seeded requests against map 1's trees, each pinned per request.
REQUESTS = 100
BATCH = 16

#: path -> (python calls, C calls, live blocks, peak bytes), each per unit
#: of work.  Python calls leave out comprehension frames (see
#: repro.bench.counts); with them, the node join makes 10.67 a node pair.
#: The flat join's live blocks move from run to run (50-66 here: numpy
#: keeps a cache of small buffers), so that one is not pinned.  A serving
#: tier is counted on its event-loop thread only (the profile is per
#: thread) and its memory not at all: the worker threads allocate too.
PINS = {
    "sequential_join[node]": (6.660, 20.01, 0.09177, 173.4),
    "flat_join": (0.05675, 0.04745, None, 828.5),
    "gd8": (40.20, 23.67, 0.3053, 254.4),
    "fig5[lsr, n=24, 200 pages]": (65.58, 22.83, 0.4734, 658.1),
    "zorder_join[14 bits, 4 regions]": (121.2, 283.3, 3.650, 14468),
    "multi_window_query[flat, 16 a batch]": (27.10, 22.14, 5.17, 1929),
    "nearest_neighbors[flat, k=10]": (94.6, 347.2, 13.23, 878.3),
    "nearest_neighbors[node, k=10]": (221.7, 851.2, 72.7, 2737),
    "Engine[window, flat, unbatched]": (221.7, 173.6, None, None),
    "ShardRouter[window, flat, 2 shards]": (288.9, 216.9, None, None),
}


def seeded_requests(side):
    """:data:`REQUESTS` windows (2-10 % of the region side) and as many
    query points, drawn from seed 42."""
    rng = random.Random(42)
    windows = []
    for _ in range(REQUESTS):
        extent = rng.uniform(0.02, 0.10) * side
        x, y = rng.uniform(0, side - extent), rng.uniform(0, side - extent)
        windows.append(Rect(x, y, x + extent, y + extent))
    points = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(REQUESTS)]
    return windows, points


def served(tier, windows, stops):
    """A run that submits *windows* one at a time, uncached, to *tier*,
    started on an event loop of its own; its stop goes on *stops*."""
    loop = asyncio.new_event_loop()
    loop.run_until_complete(tier.start())

    async def serve():
        return [await tier.submit(WindowRequest("map1", w)) for w in windows]

    def stop():
        loop.run_until_complete(tier.stop())
        loop.close()

    stops.append(stop)
    return lambda: loop.run_until_complete(serve())


@pytest.fixture(scope="module")
def paths():
    """path -> (run, unit, units expected, units of the run's result)."""
    map1, map2 = paper_maps(scale=SCALE, seed=42)
    node = (build_tree(map1), build_tree(map2))
    store = prepare_trees(*node)
    flat = (build_flat_tree(map1), build_flat_tree(map2))
    windows, points = seeded_requests(map1.region.side)
    batches = [windows[i:i + BATCH] for i in range(0, REQUESTS, BATCH)]
    small = paper_maps(scale=ZORDER_SCALE, seed=42)
    zorder_items = (small[0].items(), small[1].items(), small[0].region.bounds)

    def simulate(**settings):
        config = ParallelJoinConfig(**settings)
        return lambda: parallel_spatial_join(*node, config, page_store=store)

    def candidates(result):
        return result.candidates

    def answered(responses):
        return sum(response.ok for response in responses)

    stops = []
    engine = Engine(
        {"map1": flat[0]},
        EngineConfig(workers=0, batching=False, cache_capacity=0),
    )
    router = ShardRouter(
        {"map1": map1.table()},
        ShardConfig(shards=2, backend="flat", workers=0, cache_capacity=0),
    )
    yield {
        "sequential_join[node]": (
            lambda: sequential_join(*node),
            "node pair",
            NODE_PAIRS,
            lambda result: result.node_pairs_visited,
        ),
        "flat_join": (lambda: flat_join(*flat), "candidate", CANDIDATES, candidates),
        "gd8": (
            simulate(processors=8, disks=8, total_buffer_pages=800, variant=GD),
            "candidate",
            CANDIDATES,
            candidates,
        ),
        "fig5[lsr, n=24, 200 pages]": (
            simulate(
                processors=24,
                disks=24,
                total_buffer_pages=scaled_pages(200, SCALE),
                variant=LSR,
                reassignment=ROOT_POLICY,
            ),
            "candidate",
            CANDIDATES,
            candidates,
        ),
        "zorder_join[14 bits, 4 regions]": (
            lambda: zorder_join(*zorder_items, bits=14, max_regions=4),
            "candidate",
            ZORDER_CANDIDATES,
            lambda result: result[1].candidates,
        ),
        "multi_window_query[flat, 16 a batch]": (
            lambda: [multi_window_query(flat[0], batch) for batch in batches],
            "request",
            REQUESTS,
            lambda answers: sum(map(len, answers)),
        ),
        "nearest_neighbors[flat, k=10]": (
            lambda: [nearest_neighbors(flat[0], x, y, k=10) for x, y in points],
            "request",
            REQUESTS,
            len,
        ),
        "nearest_neighbors[node, k=10]": (
            lambda: [nearest_neighbors(node[0], x, y, k=10) for x, y in points],
            "request",
            REQUESTS,
            len,
        ),
        "Engine[window, flat, unbatched]": (
            served(engine, windows, stops), "request", REQUESTS, answered,
        ),
        "ShardRouter[window, flat, 2 shards]": (
            served(router, windows, stops), "request", REQUESTS, answered,
        ),
    }
    for stop in stops:
        stop()


def measure(run):
    run()
    return count_work(run)


@pytest.mark.parametrize("path", sorted(PINS))
def test_work_stays_within_its_pin(paths, path):
    run, unit, expected, units_of = paths[path]
    result, work = measure(run)
    units = units_of(result)
    assert units == expected
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
    run = paths["sequential_join[node]"][0]
    _, first = measure(run)
    _, second = count_work(run)
    assert first.frames == second.frames
    assert (first.python_calls, first.c_calls) == (second.python_calls, second.c_calls)
