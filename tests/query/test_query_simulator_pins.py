"""Exact pins of the parallel window and kNN simulators.

Six simulated runs at scale 0.05, seed 42, on a ``build_tree`` tree over
map 1: ``parallel_window_query`` over the middle quarter of the region
and ``parallel_knn`` (k = 10, the region's centre), each at p = d in
{1, 4, 8} with 10 buffer pages a processor.  Every run is made
twice: once paginating the tree itself, once on a store shared across
runs from ``prepare_trees(tree, tree)`` — both must give the pinned run.

``PINS`` was recorded once from the simulator and is not edited: a
refactor of the query simulator or of the machine under it must
reproduce every value bit for bit.
"""

import hashlib

import pytest

from repro.datagen import build_tree, paper_maps
from repro.geometry import Rect
from repro.join import prepare_trees
from repro.query import ParallelQueryConfig, parallel_knn, parallel_window_query
from repro.rtree.query import _min_distance

SCALE, SEED, K = 0.05, 42, 10
PROCESSORS = (1, 4, 8)
RUNS = [f"{query}-p{n}" for query in ("window", "knn") for n in PROCESSORS]


@pytest.fixture(scope="module")
def tree():
    m1, _ = paper_maps(scale=SCALE, seed=SEED)
    return build_tree(m1), m1.region.side


@pytest.fixture(scope="module")
def shared_store(tree):
    return prepare_trees(tree[0], tree[0])


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def observe(result) -> dict:
    return {
        "disk_accesses": result.disk_accesses,
        "response_time": result.response_time,
        "finish": list(result.times.finish),
        "busy": list(result.times.busy),
        "metrics": result.metrics.as_dict(),
        "oids": [
            (len(chunk), digest([entry.oid for entry in chunk]))
            for chunk in result.entries_by_processor
        ],
    }


def run(tree, name: str, page_store=None) -> dict:
    built, side = tree
    query, n = name.split("-p")
    n = int(n)
    config = ParallelQueryConfig(processors=n, disks=n, total_buffer_pages=10 * n)
    if query == "window":
        window = Rect(0.25 * side, 0.25 * side, 0.75 * side, 0.75 * side)
        return observe(
            parallel_window_query(built, window, config, page_store=page_store)
        )
    x = y = side / 2.0
    result = parallel_knn(built, x, y, K, config, page_store=page_store)
    observed = observe(result)
    observed["nearest"] = [(_min_distance(e, x, y), e.oid) for e in result.entries]
    return observed


@pytest.mark.parametrize("name", RUNS)
def test_query_run_is_pinned(tree, name):
    assert run(tree, name) == PINS[name]


@pytest.mark.parametrize("name", RUNS)
def test_query_run_on_a_shared_self_join_store_is_pinned(tree, shared_store, name):
    assert run(tree, name, page_store=shared_store) == PINS[name]


PINS = {
    "window-p1": {
        "disk_accesses": 62,
        "response_time": 2.2326300000000074,
        "finish": [2.2326300000000074],
        "busy": [2.216530000000007],
        "metrics": {"directory_ops": 176, "disk_reads": 62},
        "oids": [(738, "49aab3d14294395c")],
    },
    "window-p4": {
        "disk_accesses": 62,
        "response_time": 1.0503142109375,
        "finish": [0.7859442109374997, 1.0503142109375, 0.7107942109374997,
                   0.2216542109375],
        "busy": [0.7698442109374997, 1.0337541406250002, 0.6941120703124998,
                 0.20485],
        "metrics": {"directory_ops": 156, "disk_reads": 62, "load_waits": 3,
                    "bus_transfers": 3, "remote_hits": 3},
        "oids": [(200, "c3fb834589fd14e6"), (314, "84bebedcebf556c1"),
                 (174, "74ad8c8222dd6a6a"), (50, "d7a771b7e2c9e356")],
    },
    "window-p8": {
        "disk_accesses": 58,
        "response_time": 0.4671621406249999,
        "finish": [0.39216214062499993, 0.42998835156249987,
                   0.4296621406249999, 0.3923521406249999, 0.3924883515624999,
                   0.39268835156249987, 0.4671621406249999,
                   0.3925883515624999],
        "busy": [0.37606214062499993, 0.41342828124999986, 0.4129799999999999,
                 0.3755479296874999, 0.3755620703124999, 0.37563999999999986,
                 0.4499917187499999, 0.3752958593749999],
        "metrics": {"directory_ops": 130, "disk_reads": 58, "load_waits": 7,
                    "bus_transfers": 7, "remote_hits": 7},
        "oids": [(59, "a8b6357d66192ffc"), (119, "76ed45a646a69dfb"),
                 (102, "834777b957da83c8"), (88, "0f13386cab37793c"),
                 (121, "a1e2994dff3d0a0a"), (90, "6ed6812edde78f58"),
                 (92, "928a191343b743f0"), (67, "ee63c42cccbcad6a")],
    },
    "knn-p1": {
        "disk_accesses": 10,
        "response_time": 0.22862499999999983,
        "finish": [0.22862499999999983],
        "busy": [0.21252499999999983],
        "metrics": {"directory_ops": 20, "disk_reads": 10},
        "oids": [(10, "387a781dabad9284")],
        "nearest": [(0.002043508741353904, 2128), (0.002760113729583089, 2),
                    (0.003710972136268011, 637), (0.004116031870221578, 2725),
                    (0.004518812179260368, 4196), (0.004769508518274486, 2552),
                    (0.006209339587419511, 6537), (0.006951678415060051, 5989),
                    (0.007134693188560613, 1267),
                    (0.007309892678110086, 4915)],
    },
    "knn-p4": {
        "disk_accesses": 12,
        "response_time": 0.1456500703125,
        "finish": [0.1456500703125, 0.1243600703125, 0.10815007031250001,
                   0.10785007031250002],
        "busy": [0.1295500703125, 0.10779999999999999, 0.0914679296875,
                 0.09104585937500001],
        "metrics": {"directory_ops": 30, "disk_reads": 12, "load_waits": 3,
                    "bus_transfers": 3, "remote_hits": 3},
        "oids": [(10, "387a781dabad9284")],
        "nearest": [(0.002043508741353904, 2128), (0.002760113729583089, 2),
                    (0.003710972136268011, 637), (0.004116031870221578, 2725),
                    (0.004518812179260368, 4196), (0.004769508518274486, 2552),
                    (0.006209339587419511, 6537), (0.006951678415060051, 5989),
                    (0.007134693188560613, 1267),
                    (0.007309892678110086, 4915)],
    },
    "knn-p8": {
        "disk_accesses": 14,
        "response_time": 0.10972999999999986,
        "finish": [0.10972999999999986, 0.0716399999999999,
                   0.10815007031250001, 0.10804000000000002,
                   0.07105507031250001, 0.07117214062500002, 0.0, 0.0],
        "busy": [0.09362999999999985, 0.05507992968749989, 0.0914679296875,
                 0.09123578906250002, 0.0541287890625, 0.05412378906250001,
                 0.0, 0.0],
        "metrics": {"directory_ops": 42, "disk_reads": 14, "load_waits": 7,
                    "bus_transfers": 7, "remote_hits": 7},
        "oids": [(10, "387a781dabad9284")],
        "nearest": [(0.002043508741353904, 2128), (0.002760113729583089, 2),
                    (0.003710972136268011, 637), (0.004116031870221578, 2725),
                    (0.004518812179260368, 4196), (0.004769508518274486, 2552),
                    (0.006209339587419511, 6537), (0.006951678415060051, 5989),
                    (0.007134693188560613, 1267),
                    (0.007309892678110086, 4915)],
    },
}
