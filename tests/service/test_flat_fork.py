"""Fork-safety of the flat backend: fork-inherits-*arrays*.

A forked :class:`~repro.service.workers.WorkerPool` parks the tree
registry in a module global before forking; with flat trees the workers
inherit the packed numpy arrays by copy-on-write.  The answers computed
inside a forked worker must be byte-identical (same pickled payloads) to
the ones computed in-process over the very same trees — and the new
flat modules must pass the project's FORK001 lint rule, which forbids
unregistered writes to fork-inherited module globals.
"""

import asyncio
import pickle

import pytest

from repro.analysis.lint import run_lint
from repro.datagen import paper_maps
from repro.rtree import build_flat_tree
from repro.service import WorkerPool, fork_available

from tests.flat_oracle import query_windows

SCALE = 0.004


@pytest.fixture(scope="module")
def flat_trees():
    map1, map2 = paper_maps(scale=SCALE)
    return {"map1": build_flat_tree(map1), "map2": build_flat_tree(map2)}


def run_pool(trees, processes, coro_fn):
    async def main():
        pool = WorkerPool(trees, processes)
        pool.start()
        try:
            return await coro_fn(pool)
        finally:
            await pool.close()

    return asyncio.run(main())


async def answer_everything(pool):
    side = 1e9
    rects = [
        (w.xl, w.yl, w.xu, w.yu) for w in query_windows(17, side=side / 2e7)
    ]
    windows = await pool.run("windows", "map1", rects)
    knn = await pool.run("knn", "map2", 3.0, 4.0, 25)
    join = await pool.run("join", "map1", "map2", None)
    return windows, knn, join


class TestForkedFlatParity:
    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_forked_answers_are_byte_identical_to_inline(self, flat_trees):
        inline = run_pool(flat_trees, 0, answer_everything)
        forked = run_pool(flat_trees, 2, answer_everything)
        # Reply by reply: pickle shares one dtype object among the columns
        # of a reply, and every unpickled reply brings its own.
        assert [pickle.dumps(part) for part in inline] == [
            pickle.dumps(part) for part in forked
        ]
        assert inline == forked
        windows, knn, join = forked
        assert any(windows), "degenerate workload: no window hits"
        assert len(knn) == 25
        assert join, "degenerate workload: empty join"

    def test_thread_pool_answers_flat_queries(self, flat_trees):
        windows, knn, join = run_pool(flat_trees, 0, answer_everything)
        assert len(windows) == len(query_windows(17))
        assert all(d >= 0 for d, _ in knn)
        assert all(len(pair) == 2 for pair in join)


class TestForkLint:
    def test_fork001_passes_on_the_flat_modules(self):
        findings, stats = run_lint(
            [
                "src/repro/rtree/flat.py",
                "src/repro/join/flat.py",
                "src/repro/zorder/curve.py",
            ],
            select=["FORK001"],
        )
        assert stats["files"] == 3
        assert findings == []
