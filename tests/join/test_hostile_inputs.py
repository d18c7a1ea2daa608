"""Hostile inputs at the join entry points, one table over both backends.

The node R*-tree is the paper's paged index, the packed ``FlatRTree`` the
in-memory execution index; the entry points that serve either one ask a
single predicate, and everything else says which kind it takes.  Pinned
here: empty relations are an empty answer (no task, no warning), a mixed
pair is refused by name instead of being rebuilt behind the caller's
back, a packed tree handed to a page-walking function is a ``TypeError``
that names the function and where packed trees *are* taken, and the
forked node driver's equal-height precondition keeps its message."""

import warnings

import pytest

from repro.join import (
    ParallelJoinConfig,
    count_root_tasks,
    create_tasks,
    multiprocessing_join,
    parallel_spatial_join,
    prepare_trees,
    sequential_join,
)
from repro.join.mp import fault_tolerant_join, plan_join
from repro.rtree import tree_stats
from repro.shard.ops import sharded_join
from repro.shard.partition import build_sharded

from tests.flat_oracle import brute_join, build_flat, build_node, dataset

ITEMS = dataset("uniform", n=120, seed=7)
BUILDERS = {"node": build_node, "flat": build_flat}
SIM = ParallelJoinConfig(processors=2, disks=2, total_buffer_pages=16)


def via_shards(_backend):
    """``sharded_join`` as a two-tree join: the relations (plus an anchor
    that keeps the partitioner's fit non-empty) sharded four ways, on
    packed shard trees."""

    def join(items_r, items_s):
        sharded = build_sharded({"r": items_r, "s": items_s, "anchor": ITEMS}, 4)
        return list(sharded_join(sharded, "r", "s"))

    return join


def run_plan(tree_r, tree_s):
    plan = plan_join(tree_r, tree_s, 4)
    return plan.run(0, len(plan))


def on_trees(call):
    def join(backend):
        build = BUILDERS[backend]
        return lambda items_r, items_s: call(build(items_r), build(items_s))

    return join


#: name -> (backends it takes, backend -> join(items_r, items_s) -> pairs)
JOINS = {
    "sequential_join": (
        ("node", "flat"), on_trees(lambda r, s: sequential_join(r, s).pairs)
    ),
    "multiprocessing_join": (
        ("node", "flat"), on_trees(lambda r, s: multiprocessing_join(r, s, 1))
    ),
    "fault_tolerant_join": (
        ("node", "flat"), on_trees(lambda r, s: fault_tolerant_join(r, s, 2)[0])
    ),
    "plan_join": (("node", "flat"), on_trees(run_plan)),
    "parallel_spatial_join": (
        ("node",), on_trees(lambda r, s: parallel_spatial_join(r, s, SIM).pair_set())
    ),
    "sharded_join": (("flat",), via_shards),
}
GRID = [
    pytest.param(make(backend), id=f"{name}-{backend}")
    for name, (backends, make) in JOINS.items()
    for backend in backends
]


@pytest.mark.parametrize("join", GRID)
def test_empty_relations_are_an_empty_answer(join):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no fallback, no deadline warning
        assert list(join([], ITEMS)) == []
        assert list(join(ITEMS, [])) == []
        assert list(join([], [])) == []
        assert set(join(ITEMS, ITEMS)) == brute_join(ITEMS, ITEMS)


@pytest.mark.parametrize("backend", sorted(BUILDERS))
def test_empty_relations_make_no_task(backend):
    full, empty = BUILDERS[backend](ITEMS), BUILDERS[backend]([])
    for pair in ((empty, full), (full, empty), (empty, empty)):
        assert len(plan_join(*pair, 4)) == 0
        if backend == "node":
            assert create_tasks(*pair) == [] and count_root_tasks(*pair) == 0


MIXED = {
    "sequential_join": sequential_join,
    "multiprocessing_join": lambda r, s: multiprocessing_join(r, s, 1),
    "fault_tolerant_join": lambda r, s: fault_tolerant_join(r, s, 2),
    "plan_join": lambda r, s: plan_join(r, s, 4),
}


@pytest.mark.parametrize("call", MIXED.values(), ids=MIXED)
def test_a_mixed_pair_is_refused_naming_both_backends(call):
    node, flat = build_node(ITEMS), build_flat(ITEMS)
    for pair in ((node, flat), (flat, node)):
        with pytest.raises(ValueError, match="mixed backends") as refused:
            call(*pair)
        assert "node R*-tree" in str(refused.value)
        assert "FlatRTree" in str(refused.value)


NODE_ONLY = {
    "create_tasks": create_tasks,
    "count_root_tasks": count_root_tasks,
    "prepare_trees": prepare_trees,
    "parallel_spatial_join": lambda r, s: parallel_spatial_join(r, s, SIM),
    "tree_stats": lambda r, s: tree_stats(s),
}


@pytest.mark.parametrize("name, call", NODE_ONLY.items(), ids=NODE_ONLY)
def test_a_packed_tree_into_a_page_walker_is_a_type_error(name, call):
    node, flat = build_node(ITEMS), build_flat(ITEMS)
    for pair in ((flat, flat), (node, flat)):
        with pytest.raises(TypeError, match=f"^{name} walks the pages") as refused:
            call(*pair)
        assert "sequential_join" in str(refused.value)  # what does take them


@pytest.mark.parametrize(
    "knobs", [{"use_sweep": False}, {"use_restriction": False}], ids=lambda k: next(iter(k))
)
def test_the_ablation_knobs_are_node_only(knobs):
    node, flat = build_node(ITEMS), build_flat(ITEMS)
    with pytest.raises(ValueError, match="run the ablation on node trees"):
        sequential_join(flat, flat, **knobs)
    assert sequential_join(node, node, **knobs).pair_set() == brute_join(ITEMS, ITEMS)


def test_unequal_node_heights_keep_their_message():
    tall = build_node(dataset("uniform", n=900, seed=31), cap=4)
    short = build_node(dataset("uniform", n=12, seed=32), cap=4)
    assert tall.height != short.height
    for call in (
        lambda: create_tasks(tall, short),
        lambda: plan_join(tall, short, 4),
        lambda: multiprocessing_join(tall, short, 2),
    ):
        with pytest.raises(ValueError, match="assumes equally tall trees"):
            call()
