"""A finished tier or join leaves no cyclic garbage, and a stopped tier
holds no cached answer.

Each case runs with the cyclic collector off, drops everything it made,
then runs one ``gc.DEBUG_SAVEALL`` collection: whatever that collection
finds was kept alive by a reference cycle only, and would have held its
memory (trees, caches, metrics, answers) until the next full collection.
No object of this package may be among it.  Deterministic and untimed.
"""

import asyncio
import gc

import pytest

from repro.datagen import build_tree, paper_maps
from repro.geometry import Rect
from repro.join import (
    ParallelJoinConfig,
    SharedNothingConfig,
    multiprocessing_join,
    parallel_spatial_join,
    sequential_join,
    shared_nothing_join,
)
from repro.join.mp import fault_tolerant_join
from repro.rtree.bulk import str_bulk_load
from repro.rtree.flat import build_flat_tree
from repro.service import (
    Engine,
    EngineConfig,
    JoinRequest,
    KNNRequest,
    Status,
    WindowRequest,
)
from repro.shard import ShardConfig, ShardRouter


@pytest.fixture(scope="module")
def maps():
    return paper_maps(scale=0.01)


def cyclic_garbage(work) -> list[str]:
    """Run *work* with the collector off; the names of this package's
    types among what one collection afterwards finds unreachable — a
    class this package made on the fly counts as well as an instance."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        kinds = (obj if isinstance(obj, type) else type(obj) for obj in gc.garbage)
        return sorted({
            f"{kind.__module__}.{kind.__qualname__}"
            for kind in kinds
            if (kind.__module__ or "").startswith("repro.")
        })
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def serve(make_target, side: float) -> None:
    """Start a tier, serve windows, one kNN and one join, stop, drop."""

    async def session():
        target = make_target()
        await target.start()
        answers = [
            await target.submit(
                WindowRequest("map1", Rect(0, 0, side * (i + 1) / 20, side / 3))
            )
            for i in range(12)
        ]
        answers.append(await target.submit(KNNRequest("map2", side / 2, side / 2, 5)))
        answers.append(await target.submit(
            JoinRequest("map1", "map2", window=Rect(0, 0, side / 4, side / 4))
        ))
        await target.stop()
        assert all(a.status is Status.OK for a in answers), answers

    asyncio.run(session())


@pytest.mark.parametrize("workers", [0, 2])
class TestServingTiers:
    def test_engine(self, maps, workers):
        map1, map2 = maps
        config = EngineConfig(workers=workers, batching=True)

        def make():
            trees = {"map1": build_flat_tree(map1), "map2": build_flat_tree(map2)}
            return Engine(trees, config)

        assert cyclic_garbage(lambda: serve(make, map1.region.side)) == []

    def test_router(self, maps, workers):
        map1, map2 = maps
        config = ShardConfig(shards=2, workers=workers)

        def make():
            return ShardRouter.from_maps({"map1": map1, "map2": map2}, config)

        assert cyclic_garbage(lambda: serve(make, map1.region.side)) == []


class TestStoppedTier:
    """A stopped tier drops its cached answers and keeps the counters."""

    @pytest.mark.parametrize("tier", ["engine", "router"])
    def test_stop_empties_the_cache(self, maps, tier):
        map1, map2 = maps
        side = map1.region.side

        async def session():
            if tier == "engine":
                trees = {"map1": build_flat_tree(map1), "map2": build_flat_tree(map2)}
                target = Engine(trees, EngineConfig(workers=0))
            else:
                target = ShardRouter.from_maps(
                    {"map1": map1, "map2": map2}, ShardConfig(shards=2, workers=0)
                )
            await target.start()
            for i in range(6):
                window = WindowRequest("map1", Rect(0, 0, side * (i + 1) / 20, side / 3))
                for _ in range(2):  # a miss and its insert, then a hit
                    assert (await target.submit(window)).status is Status.OK
            before = target.snapshot()["cache"]
            await target.stop()
            return target, before

        target, before = asyncio.run(session())
        after = target.snapshot()["cache"]
        assert before["size"] == 6
        assert len(target.cache) == after["size"] == 0
        for counter in ("hits", "misses", "inserts"):
            assert after[counter] == before[counter] == 6


@pytest.fixture(scope="module")
def backends(maps):
    map1, map2 = maps
    return {
        "node": (build_tree(map1), build_tree(map2)),
        "flat": (build_flat_tree(map1), build_flat_tree(map2)),
    }


REAL_DRIVERS = {
    "sequential": lambda r, s: sequential_join(r, s).pairs,
    "multiprocessing": lambda r, s: multiprocessing_join(r, s, 2),
    "fault_tolerant": lambda r, s: fault_tolerant_join(r, s, 2)[0],
}
#: The simulators run on node trees only.
SIMULATORS = {
    "parallel_spatial": lambda r, s: parallel_spatial_join(
        r, s, ParallelJoinConfig(processors=4, disks=4, total_buffer_pages=40)
    ).pairs,
    "shared_nothing": lambda r, s: shared_nothing_join(
        r, s, SharedNothingConfig(processors=4, buffer_pages_per_processor=10)
    ).pairs,
}


class TestJoinDrivers:
    @pytest.mark.parametrize("backend", ["node", "flat"])
    @pytest.mark.parametrize("driver", sorted(REAL_DRIVERS))
    def test_real_driver(self, backends, backend, driver):
        trees = backends[backend]
        expected = sequential_join(*trees).pair_set()

        def work():
            assert set(REAL_DRIVERS[driver](*trees)) == expected

        assert cyclic_garbage(work) == []

    @pytest.mark.parametrize("driver", sorted(SIMULATORS))
    def test_simulator(self, backends, driver):
        trees = backends["node"]
        expected = sequential_join(*trees).pair_set()

        def work():
            assert set(SIMULATORS[driver](*trees)) == expected

        assert cyclic_garbage(work) == []

    def test_unequal_heights(self):
        """Height 3 against height 2: every node pair of unequal levels
        descends one side only."""
        items_r, items_s = grid(100, 10, 1.0), grid(30, 6, 2.0)
        tall = str_bulk_load(items_r, dir_capacity=8, data_capacity=8)
        short = str_bulk_load(items_s, dir_capacity=8, data_capacity=8)
        assert (tall.height, short.height) == (3, 2)
        expected = {
            (i, j) for i, a in items_r for j, b in items_s if a.intersects(b)
        }

        def work():
            assert sequential_join(tall, short).pair_set() == expected

        assert cyclic_garbage(work) == []


def grid(n: int, width: int, step: float) -> list:
    """*n* overlapping squares of side ``1.5 * step``, *width* a row."""
    return [
        (i, Rect(step * (i % width), step * (i // width),
                 step * (i % width + 1.5), step * (i // width + 1.5)))
        for i in range(n)
    ]
