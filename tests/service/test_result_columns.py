"""Rows, not objects, on the way out.

Three contracts of the columnar result path, each on both backends where
it applies:

* the **allocation guard** — a flat window, kNN and join answered through
  every tier constructs no ``Entry``: a fresh worker's first call builds
  nothing per object (which is what ``_warm`` used to paper over);
* the **instrument contract** — ``perf/`` is frozen, so every call shape
  it uses on an answer is exercised here against the real
  ``perf.oracle`` functions;
* the ``object``-dtype path (string oids) and the typed empty answers.
"""

import asyncio
import pickle

import numpy as np
import pytest

from perf.oracle import MapOracle, pair_keys
from repro import GD, ParallelJoinConfig, parallel_spatial_join, prepare_trees
from repro.datagen import build_tree, paper_maps
from repro.geometry import BoxTable, PairTable, Rect, RowSet
from repro.join import multiprocessing_join, sequential_join
from repro.query.batch import multi_window_query
from repro.recovery import RecoveryConfig
from repro.rtree import FlatRTree, build_flat_tree
from repro.rtree.entry import Entry
from repro.rtree.flat import EntryRows, knn_rows, window_rows
from repro.rtree.query import QueryStats, nearest_neighbors, window_query
from repro.service import Engine, EngineConfig, WorkerPool
from repro.service.model import JoinRequest, KNNRequest, WindowRequest
from repro.shard import ShardConfig, ShardRouter
from repro.shard.ops import sharded_join, sharded_window
from repro.shard.partition import build_sharded

from tests.flat_oracle import query_windows


@pytest.fixture(scope="module")
def maps():
    return paper_maps(scale=0.01)


@pytest.fixture(scope="module")
def windows(maps):
    """Rect tuples over map 1, every one hitting something."""
    side = maps[0].region.side
    oracle = MapOracle(maps[0].items())
    rects = [(w.xl, w.yl, w.xu, w.yu) for w in query_windows(12, side=side)]
    return [rect for rect in rects if oracle.window(rect)]


@pytest.fixture(scope="module", params=["node", "flat"])
def trees(request, maps):
    if request.param == "flat":
        return tuple(build_flat_tree(data) for data in maps)
    pair = tuple(build_tree(data) for data in maps)
    prepare_trees(*pair)
    return pair


def ask(target, requests):
    async def main():
        async with target:
            return [await target.submit(request) for request in requests]

    responses = asyncio.run(main())
    assert all(response.ok for response in responses)
    return [response.value for response in responses]


def make_targets(maps, trees, backend):
    named = {"map1": trees[0], "map2": trees[1]}
    router = ShardRouter.from_maps(
        {"map1": maps[0], "map2": maps[1]},
        ShardConfig(shards=2, backend=backend, workers=0),
    )
    return Engine(named, EngineConfig(workers=0)), router


# -- the allocation guard -------------------------------------------------------
def test_flat_answers_construct_no_entry(maps, windows, monkeypatch):
    flat = tuple(build_flat_tree(data) for data in maps)
    targets = make_targets(maps, flat, "flat")
    made = []
    init = Entry.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Entry, "__init__", counting)
    requests = [WindowRequest("map1", Rect(*w)) for w in windows[:4]] + [
        KNNRequest("map2", windows[-1][0], windows[-1][1], 10),
        JoinRequest("map1", "map2"),
        JoinRequest("map1", "map2", Rect(*windows[-1])),
    ]
    for target in targets:
        values = ask(target, requests)
        assert all(type(value) is RowSet for value in values[:5])
        assert all(type(value) is PairTable for value in values[5:])
        assert all(len(value) for value in values[:6])
    result = sequential_join(*flat)
    forked = multiprocessing_join(*flat, 1)
    assert type(result.pairs) is type(forked) is PairTable and len(forked)
    assert made == []
    # the guard is live: the API edge does make them, one per row iterated
    found = window_query(flat[0], Rect(*windows[-1]))
    assert len(found) and made == []
    assert [entry.oid for entry in found] == found.oids.tolist()
    assert len(made) == len(found)


def test_the_node_drivers_convert_at_their_edge(trees):
    assert type(sequential_join(*trees).pairs) is PairTable
    assert type(multiprocessing_join(*trees, 1)) is PairTable


# -- the frozen instrument's call shapes ---------------------------------------
class TestInstrumentContract:
    def test_pair_keys_reads_every_join_answer(self, maps, trees):
        """``perf/oracle.py::pair_keys``: ``answer.pairs``, else
        ``pair_set()``, else the answer; ``len()`` + 2-item rows."""
        expected = pair_keys(sequential_join(*trees).pair_set())
        assert len(expected) > 100
        answers = [sequential_join(*trees), multiprocessing_join(*trees, 2)]
        if not isinstance(trees[0], FlatRTree):
            config = ParallelJoinConfig(
                processors=4, disks=4, total_buffer_pages=200, variant=GD
            )
            answers.append(parallel_spatial_join(*trees, config))
        for answer in answers:
            assert np.array_equal(pair_keys(answer), expected)

    def test_config_calls(self, maps, trees):
        """The configs ``perf/`` builds: ``serving.engine_config`` (workers,
        max_inflight, seed) with every override the workloads and probes
        pass, the shard-mix ``ShardConfig``, ``join_full.sim_config(8)`` /
        ``(1)`` and the ``recovery.ft_join`` probe's ``RecoveryConfig()``."""
        from perf import join_full, serving
        from perf.spec import PROCESSES

        expected = pair_keys(sequential_join(*trees).pair_set())
        ft_join = multiprocessing_join(*trees, PROCESSES, recovery=RecoveryConfig())
        assert np.array_equal(pair_keys(ft_join), expected)
        if not isinstance(trees[0], FlatRTree):  # the simulator's trees
            for processors in (8, 1):
                config = join_full.sim_config(processors)
                answer = parallel_spatial_join(*trees, config)
                assert np.array_equal(pair_keys(answer), expected)
            return
        # the serving workloads' trees: constructing the tiers checks them
        named = {"map1": trees[0], "map2": trees[1]}
        for overrides in (
            {},
            {"faults": serving.CHAOS_PLAN, "attempt_timeout_s": 0.5},
            {"cache_capacity": 0},
            {"batching": False},
            {"workers": 0},
        ):
            Engine(named, serving.engine_config(42, **overrides))
        ShardRouter.from_maps(
            {"map1": maps[0], "map2": maps[1]},
            ShardConfig(
                shards=PROCESSES, replicas=1, backend="flat", workers=1,
                max_inflight=1024,
            ),
        )

    def test_pickled_join_answer(self, trees):
        """``probes``: ``pickle.dumps(multiprocessing_join(*flat, 1))``."""
        pairs = multiprocessing_join(*trees, 1)
        blob = pickle.dumps(pairs, pickle.HIGHEST_PROTOCOL)
        assert len(blob) <= 16 * len(pairs) + 512
        assert pickle.loads(blob) == pairs

    def test_map_oracle_checks_served_values(self, maps, trees, windows):
        """``MapOracle.check``: ``tuple(value) == ...`` and ``[d for d,
        _oid in value]`` with bit-identical distances."""
        backend = "flat" if isinstance(trees[0], FlatRTree) else "node"
        requests = [("window", "map1", w) for w in windows] + [
            ("knn", "map2", w[0], w[1], k) for w, k in zip(windows, (1, 10, 5000))
        ]
        built = [
            WindowRequest(r[1], Rect(*r[2])) if r[0] == "window"
            else KNNRequest(*r[1:])
            for r in requests
        ]
        oracles = {"map1": MapOracle(maps[0].items()), "map2": MapOracle(maps[1].items())}
        for target in make_targets(maps, trees, backend):
            for request, value in zip(requests, ask(target, built)):
                assert oracles[request[1]].check(request, value), request

    def test_index_probes(self, trees, windows):
        """``probes._rtree_probes`` / ``_worker_probes`` / ``serving``:
        ``len(window_query(tree, r, stats))``, ``e.oid for e in entries``
        over ``multi_window_query``, ``await pool.windows(...)``,
        ``len(tree.window_indices(rect))``."""
        tree = trees[0]
        for window in windows:
            stats = QueryStats()
            rows = len(window_query(tree, Rect(*window), stats))
            assert rows and stats.total_nodes

        async def served():
            pool = WorkerPool({"map1": tree}, 0)
            pool.start()
            try:
                return [await pool.windows("map1", [w]) for w in windows]
            finally:
                await pool.close()

        inline = [
            [
                tuple(sorted(e.oid for e in entries))
                for entries in multi_window_query(tree, [Rect(*w)])
            ]
            for w in windows
        ]
        assert asyncio.run(served()) == inline
        if isinstance(tree, FlatRTree):
            assert all(len(tree.window_indices(Rect(*w))) for w in windows)


# -- typed empties ----------------------------------------------------------------
def test_all_miss_batch_and_k_beyond_n_are_typed_tables(maps):
    tree = build_flat_tree(maps[0])
    far = [Rect(-9.0, -9.0, -8.0, -8.0), Rect(-5.0, -5.0, -4.0, -4.0)]
    answers = multi_window_query(tree, far)
    assert [type(found) for found in answers] == [EntryRows, EntryRows]
    for found in answers:
        assert found == [] and window_rows(found).oids.dtype == np.int64
    few = FlatRTree.build(maps[0].table().take(range(3)))
    assert len(nearest_neighbors(few, 0.0, 0.0, k=10)) == 3
    nothing = knn_rows(nearest_neighbors(FlatRTree.build([]), 0.0, 0.0, k=3))
    assert nothing == ()
    assert (nothing.oids.dtype, nothing.distances.dtype) == (np.int64, np.float64)
    assert sequential_join(tree, FlatRTree.build([])).pairs.left.dtype == np.int64


# -- string oids: the object-dtype path ---------------------------------------------
def test_string_oids_through_flat_window_join_and_shard_merge(maps, windows):
    def renamed(data, prefix):
        table = data.table()
        return BoxTable(
            [f"{prefix}{oid:05d}" for oid in table.oids],
            table.xl, table.yl, table.xu, table.yu,
        )

    tables = {"map1": renamed(maps[0], "r"), "map2": renamed(maps[1], "s")}
    flat = {name: FlatRTree.build(table) for name, table in tables.items()}
    ints = sequential_join(*(build_flat_tree(data) for data in maps)).pairs
    expected_join = sorted((f"r{a:05d}", f"s{b:05d}") for a, b in ints)
    rect = Rect(*windows[-1])
    expected_window = tuple(
        f"r{oid:05d}" for oid in MapOracle(maps[0].items()).window(windows[-1])
    )

    assert flat["map1"].table.oids.dtype == object
    assert window_rows(window_query(flat["map1"], rect)).sorted() == expected_window
    pairs = sequential_join(flat["map1"], flat["map2"]).pairs
    assert pairs.left.dtype == object and pairs.sorted() == expected_join
    assert multiprocessing_join(flat["map1"], flat["map2"], 2).sorted() == expected_join

    sharded = build_sharded(tables, 3, mode="zrange", backend="flat")
    assert sharded_window(sharded, "map1", rect) == expected_window
    assert sharded_join(sharded, "map1", "map2") == expected_join
    router = ShardRouter(tables, ShardConfig(shards=3, backend="flat", workers=0))
    window, join = ask(
        router, [WindowRequest("map1", rect), JoinRequest("map1", "map2")]
    )
    assert window == expected_window and join == expected_join
