"""Chunked (resumable) joins through the serving engine: the chunk
decomposition is invisible to clients, and a crashing worker pool only
re-runs the chunks it lost."""

import asyncio

import pytest

from repro.datagen import build_tree, paper_maps
from repro.faults import FaultPlan
from repro.geometry import Rect
from repro.service import Engine, EngineConfig, JoinRequest, Status


@pytest.fixture(scope="module")
def workload():
    m1, m2 = paper_maps(scale=0.02)
    trees = {"r": build_tree(m1), "s": build_tree(m2)}
    side = m1.region.side
    return trees, side


def submit_one(trees, config, request, timeout=60):
    async def main():
        async with Engine(trees, config) as engine:
            return await engine.submit(request, timeout=timeout)

    return asyncio.run(main())


class TestChunkedEqualsUnchunked:
    def test_same_answer_as_single_call_join(self, workload):
        trees, _ = workload
        request = JoinRequest(tree_r="r", tree_s="s")
        plain = submit_one(trees, EngineConfig(workers=2, batching=False), request)
        chunked = submit_one(
            trees,
            EngineConfig(workers=2, batching=False, join_chunks=4),
            request,
        )
        assert plain.status is Status.OK and chunked.status is Status.OK
        assert chunked.value == plain.value
        assert len(plain.value) > 0

    def test_windowed_join_chunks_agree(self, workload):
        trees, side = workload
        window = Rect(0, 0, side * 0.5, side * 0.5)
        request = JoinRequest(tree_r="r", tree_s="s", window=window)
        plain = submit_one(trees, EngineConfig(workers=0, batching=False), request)
        chunked = submit_one(
            trees,
            EngineConfig(workers=2, batching=False, join_chunks=3),
            request,
        )
        assert chunked.status is Status.OK
        assert chunked.value == plain.value

    def test_more_chunks_than_tasks_still_exact(self, workload):
        trees, _ = workload
        request = JoinRequest(tree_r="r", tree_s="s")
        plain = submit_one(trees, EngineConfig(workers=0, batching=False), request)
        chunked = submit_one(
            trees,
            EngineConfig(workers=2, batching=False, join_chunks=64),
            request,
        )
        assert chunked.status is Status.OK
        assert chunked.value == plain.value


    def test_flat_trees_are_chunked_on_their_arrays(self, workload):
        """The chunk decomposition comes from the backend-neutral join
        plan: packed trees are sliced as packed trees."""
        from repro.rtree import build_flat_tree

        trees, _ = workload
        m1, m2 = paper_maps(scale=0.02)
        flat = {"r": build_flat_tree(m1), "s": build_flat_tree(m2)}
        request = JoinRequest(tree_r="r", tree_s="s")
        plain = submit_one(trees, EngineConfig(workers=0, batching=False), request)
        chunked = submit_one(
            flat,
            EngineConfig(workers=0, batching=False, join_chunks=4),
            request,
        )
        assert chunked.status is Status.OK
        assert chunked.value == plain.value


class TestCrashingPool:
    def test_crashy_workers_only_rerun_lost_chunks(self, workload):
        trees, _ = workload
        request = JoinRequest(tree_r="r", tree_s="s")
        healthy = submit_one(
            trees, EngineConfig(workers=2, batching=False), request
        )
        crashy = submit_one(
            trees,
            EngineConfig(
                workers=2,
                batching=False,
                join_chunks=4,
                faults=FaultPlan(seed=4, worker_crash_p=0.2),
                cache_capacity=0,
            ),
            request,
        )
        assert crashy.status is Status.OK
        assert crashy.value == healthy.value
