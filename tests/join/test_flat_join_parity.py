"""Differential parity: joins over the flat packed backend.

The vectorized frontier join and the backend dispatch inside
``sequential_join`` / ``multiprocessing_join`` must return exactly the
brute-force pair set of :mod:`tests.flat_oracle` — for flat-vs-flat and
self-join inputs alike.  What the packed index does *not* do (join a
node tree, stand in for one in the simulated LSR/GSRR/GD machine) is
pinned in ``tests/join/test_hostile_inputs.py``.
"""

import warnings

import pytest

from repro.join import multiprocessing_join, sequential_join
from repro.join import flat as flat_module
from repro.join.flat import flat_join
from repro.join.mp import plan_join
from repro.join.refinement import ExactRefinement

from tests.flat_oracle import (
    assert_join_parity,
    brute_join,
    build_both,
    dataset,
)


@pytest.fixture(scope="module")
def workload():
    items_r = dataset("uniform", n=500, seed=21)
    items_s = dataset("clustered", n=480, seed=22)
    node_r, flat_r = build_both(items_r)
    node_s, flat_s = build_both(items_s)
    expected = brute_join(items_r, items_s)
    return items_r, items_s, node_r, node_s, flat_r, flat_s, expected


class TestSequentialParity:
    def test_flat_join_kernel(self, workload):
        items_r, items_s, _, _, flat_r, flat_s, _ = workload
        result = flat_join(flat_r, flat_s)
        assert_join_parity(items_r, items_s, result.pairs)
        assert result.intersection_tests > 0
        assert result.node_pairs_visited > 0

    def test_blocked_descent_is_the_same_join(self, workload, monkeypatch):
        """A frontier longer than ``_BLOCK`` descends block by block: the
        same pairs in the same order, the same counters."""
        _, _, _, _, flat_r, flat_s, _ = workload
        whole = flat_join(flat_r, flat_s)
        monkeypatch.setattr(flat_module, "_BLOCK", 5)
        blocked = flat_join(flat_r, flat_s)
        assert blocked.pairs == whole.pairs
        assert blocked.intersection_tests == whole.intersection_tests
        assert blocked.node_pairs_visited == whole.node_pairs_visited

    def test_dispatch_from_sequential_join(self, workload):
        _, _, node_r, node_s, flat_r, flat_s, expected = workload
        assert set(sequential_join(flat_r, flat_s).pairs) == expected
        assert set(sequential_join(node_r, node_s).pairs) == expected

    def test_self_join(self, workload):
        items_r, _, _, _, flat_r, _, _ = workload
        assert_join_parity(items_r, items_r, flat_join(flat_r, flat_r).pairs)

    def test_unequal_heights(self):
        big = dataset("uniform", n=900, seed=31)
        small = dataset("uniform", n=12, seed=32)
        _, flat_big = build_both(big)
        _, flat_small = build_both(small)
        assert flat_big.num_levels != flat_small.num_levels
        assert_join_parity(big, small, flat_join(flat_big, flat_small).pairs)
        assert_join_parity(small, big, flat_join(flat_small, flat_big).pairs)

    def test_empty_inputs(self):
        items = dataset("uniform", n=40, seed=33)
        _, flat = build_both(items)
        _, empty = build_both([])
        assert flat_join(flat, empty).pairs == []
        assert flat_join(empty, flat).pairs == []
        assert flat_join(empty, empty).pairs == []

    def test_refinement_filters_candidates(self, workload):
        items_r, items_s, _, _, flat_r, flat_s, _ = workload
        # Exact geometry = the MBR corners, so refinement keeps everything;
        # the point is that the refinement seam runs on the flat path.
        def corners(items):
            return {
                oid: ((r.xl, r.yl), (r.xu, r.yl), (r.xu, r.yu), (r.xl, r.yu))
                for oid, r in items
            }

        refinement = ExactRefinement(corners(items_r), corners(items_s))
        refined = flat_join(flat_r, flat_s, refinement=refinement).pairs
        unrefined = flat_join(flat_r, flat_s).pairs
        assert set(refined) <= set(unrefined)


class TestMultiprocessingParity:
    def test_flat_fork_path(self, workload):
        items_r, items_s, _, _, flat_r, flat_s, _ = workload
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pairs = multiprocessing_join(flat_r, flat_s, 4)
        assert_join_parity(items_r, items_s, pairs)

    def test_dispatch_from_multiprocessing_join(self, workload):
        _, _, _, _, flat_r, flat_s, expected = workload
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert set(multiprocessing_join(flat_r, flat_s, 4)) == expected

    def test_serial_fallback(self, workload):
        _, _, _, _, flat_r, flat_s, expected = workload
        assert set(multiprocessing_join(flat_r, flat_s, 1)) == expected

    def test_flat_plan_beats_once_per_round(self, workload, monkeypatch):
        """The heartbeat is real progress, not decoration: a slice beats
        on every round of every block, an empty slice never."""
        _, _, _, _, flat_r, flat_s, expected = workload
        plan = plan_join(flat_r, flat_s, 4)
        beats = []
        unblocked = plan.run(0, len(plan), lambda: beats.append(1))
        rounds = len(beats)
        assert set(unblocked) == expected and rounds >= 1
        monkeypatch.setattr(flat_module, "_BLOCK", 5)
        assert plan.run(0, len(plan), lambda: beats.append(1)) == unblocked
        assert len(beats) - rounds > rounds
        assert plan.run(3, 3, lambda: pytest.fail("beat on an empty slice")) == []

    def test_recovery_stays_on_packed_arrays(self):
        """A recoverable (leased, forked) flat+flat join runs the flat
        plan: exact answer."""
        items_r = dataset("uniform", n=300, seed=41)
        items_s = dataset("clustered", n=300, seed=42)
        _, flat_r = build_both(items_r)
        _, flat_s = build_both(items_s)
        pairs = multiprocessing_join(flat_r, flat_s, 2)
        assert_join_parity(items_r, items_s, pairs)

    def test_unequal_heights_fork_path(self):
        big = dataset("uniform", n=900, seed=31)
        small = dataset("uniform", n=12, seed=32)
        _, flat_big = build_both(big)
        _, flat_small = build_both(small)
        assert flat_big.num_levels != flat_small.num_levels
        for processes in (1, 3):
            assert_join_parity(
                big, small, multiprocessing_join(flat_big, flat_small, processes)
            )
            assert_join_parity(
                small, big, multiprocessing_join(flat_small, flat_big, processes)
            )
