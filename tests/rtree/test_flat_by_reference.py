"""The packed tree indexes the map, it does not copy it: every flat tree
over a map — built alone or per shard by the router — holds the map's
own ``BoxTable`` and owns only its ``rows`` column and its directory.
Deterministic byte counts, not RSS, so the pin holds on any machine."""

import numpy as np
import pytest

from repro.datagen import paper_maps
from repro.rtree import build_flat_tree
from repro.shard import ShardConfig, ShardRouter


@pytest.fixture(scope="module")
def maps():
    return paper_maps(scale=0.02, seed=42)


def root(array: np.ndarray) -> np.ndarray:
    """The array that owns *array*'s memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def arrays_in(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from arrays_in(item)


def owned_bytes(tree) -> int:
    """nbytes of every array the tree reaches whose memory is not the
    table's — a hidden copy anywhere in its slots counts."""
    table = tree.table
    shared = {id(root(column)) for column in (table.oids, table.xl, table.yl, table.xu, table.yu)}
    owners = {}
    for name in type(tree).__slots__:
        for array in arrays_in(getattr(tree, name)):
            owner = root(array)
            if id(owner) not in shared:
                owners[id(owner)] = owner.nbytes
    return sum(owners.values())


def assert_indexes_in_place(tree, table) -> None:
    assert tree.table is table
    tree.validate()
    directory = int(tree.level_offsets[-1])  # boxes on levels >= 1
    bound = 8 * tree.size + 32 * directory + tree.level_offsets.nbytes
    assert owned_bytes(tree) <= bound


def test_a_map_tree_holds_the_map_table(maps):
    for data in maps:
        tree = build_flat_tree(data)
        assert_indexes_in_place(tree, data.table())
        assert sorted(tree.rows) == list(range(len(data)))  # a permutation


def test_every_flat_shard_tree_holds_the_map_table(maps):
    named = {"map1": maps[0], "map2": maps[1]}
    router = ShardRouter.from_maps(named, ShardConfig(shards=3, backend="flat"))
    for trees in router.sharded.trees:
        for name, tree in trees.items():
            assert_indexes_in_place(tree, named[name].table())


def test_the_bytes_probe_counts_the_directory_only(maps):
    """What the frozen ``rtree.flat.bytes`` probe now counts: directory
    arrays only (11,216 B over both maps at this scale)."""
    trees = [build_flat_tree(data) for data in maps]
    probe = sum(
        getattr(tree, name).nbytes
        for tree in trees
        for name in ("xmin", "ymin", "xmax", "ymax", "level_offsets")
    )
    assert probe == 11216
