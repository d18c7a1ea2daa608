"""Multi-window shared traversal and micro-batcher behaviour."""

import asyncio
import random

from repro.geometry import Rect
from repro.query import multi_window_query
from repro.rtree import FlatRTree, RStarTree, str_bulk_load, window_query
from repro.service import Engine, EngineConfig, WindowRequest, batcher


def random_items(seed, count=800):
    rng = random.Random(seed)
    items = []
    for i in range(count):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        items.append((i, Rect(x, y, x + rng.uniform(0, 3), y + rng.uniform(0, 3))))
    return items


def build_random_tree(seed, count=800):
    items = random_items(seed, count)
    return str_bulk_load(items, dir_capacity=8, data_capacity=8), items


class TestMultiWindowQuery:
    def test_matches_single_window_queries(self):
        tree, _ = build_random_tree(3)
        rng = random.Random(4)
        windows = []
        for _ in range(17):
            x, y = rng.uniform(0, 90), rng.uniform(0, 90)
            windows.append(Rect(x, y, x + rng.uniform(1, 25), y + rng.uniform(1, 25)))
        answers = multi_window_query(tree, windows)
        assert len(answers) == len(windows)
        for window, entries in zip(windows, answers):
            want = {e.oid for e in window_query(tree, window)}
            got = [e.oid for e in entries]
            assert len(got) == len(set(got))  # no duplicates per window
            assert set(got) == want

    def test_empty_batch(self):
        tree, _ = build_random_tree(5)
        assert multi_window_query(tree, []) == []

    def test_empty_tree(self):
        empty = RStarTree(dir_capacity=8, data_capacity=8)
        assert multi_window_query(empty, [Rect(0, 0, 1, 1)]) == [[]]

    def test_disjoint_windows_stay_separate(self):
        tree, items = build_random_tree(6)
        low = Rect(0, 0, 10, 10)
        high = Rect(80, 80, 100, 100)
        low_entries, high_entries = multi_window_query(tree, [low, high])
        assert {e.oid for e in low_entries} == {
            i for i, r in items if r.intersects(low)
        }
        assert {e.oid for e in high_entries} == {
            i for i, r in items if r.intersects(high)
        }


class TestMicroBatching:
    def test_concurrent_windows_coalesce(self, monkeypatch):
        items = random_items(7)
        tree = FlatRTree.build(items)
        monkeypatch.setattr(batcher, "WINDOW_S", 0.05)
        monkeypatch.setattr(batcher, "MAX_BATCH", 64)
        config = EngineConfig(workers=0, batching=True, cache_capacity=0)

        async def main():
            async with Engine({"t": tree}, config) as engine:
                rng = random.Random(8)
                requests = []
                for _ in range(40):
                    x, y = rng.uniform(0, 80), rng.uniform(0, 80)
                    requests.append(
                        WindowRequest("t", Rect(x, y, x + 15, y + 15))
                    )
                responses = await asyncio.gather(
                    *(engine.submit(r) for r in requests)
                )
                return requests, responses, engine.metrics.report()["batch_sizes"]

        requests, responses, batches = asyncio.run(main())
        assert all(r.ok for r in responses)
        # 40 requests arriving together within a 50 ms window coalesce
        # into far fewer batches, and at least one real batch formed.
        assert batches["requests_batched"] == 40
        assert batches["batches"] < 40
        assert batches["max"] > 1
        for request, response in zip(requests, responses):
            want = tuple(
                sorted(i for i, r in items if r.intersects(request.window))
            )
            assert response.value == want
            assert response.batch_size >= 1

    def test_batching_off_means_batches_of_one(self):
        tree = FlatRTree.build(random_items(9))
        config = EngineConfig(workers=0, batching=False, cache_capacity=0)

        async def main():
            async with Engine({"t": tree}, config) as engine:
                responses = await asyncio.gather(
                    *(
                        engine.submit(WindowRequest("t", Rect(0, 0, 50, 50)))
                        for _ in range(8)
                    )
                )
                return responses, engine.metrics.report()["batch_sizes"]

        responses, batches = asyncio.run(main())
        assert all(r.ok and r.batch_size == 1 for r in responses)
        assert batches["batches"] == 0  # no batcher events without the batcher
