"""Integration tests: the full pipeline from map generation to join results.

These cross-module tests exercise the exact composition the experiment
harness uses; the paper's qualitative findings are the claims of
``repro.bench.claims``, checked at small scale by ``tests/bench/test_claims.py``.
"""

import pytest

from repro.datagen import build_tree, paper_maps
from repro.join import (
    ExactRefinement,
    ParallelJoinConfig,
    count_root_tasks,
    multiprocessing_join,
    parallel_spatial_join,
    prepare_trees,
    sequential_join,
)
from repro.rtree import tree_stats


@pytest.fixture(scope="module")
def pipeline():
    m1, m2 = paper_maps(scale=0.05)
    tree_r, tree_s = build_tree(m1), build_tree(m2)
    page_store = prepare_trees(tree_r, tree_s)
    expected = sequential_join(tree_r, tree_s).pair_set()
    return m1, m2, tree_r, tree_s, page_store, expected


class TestPipelineConsistency:
    def test_all_backends_agree(self, pipeline):
        m1, m2, tree_r, tree_s, page_store, expected = pipeline
        sim = parallel_spatial_join(
            tree_r, tree_s, ParallelJoinConfig(processors=8, disks=8, total_buffer_pages=400),
            page_store=page_store,
        )
        mp_pairs = multiprocessing_join(tree_r, tree_s, processes=2)
        assert sim.pair_set() == expected
        assert set(mp_pairs) == expected

    def test_symmetry_of_join(self, pipeline):
        _, _, tree_r, tree_s, _, expected = pipeline
        flipped = sequential_join(tree_s, tree_r).pair_set()
        assert {(s, r) for r, s in flipped} == expected

    def test_tree_shapes_sane(self, pipeline):
        _, _, tree_r, tree_s, _, _ = pipeline
        for tree in (tree_r, tree_s):
            stats = tree_stats(tree)
            assert stats.height in (2, 3)
            assert 0.55 <= stats.avg_leaf_fill <= 0.9
        assert count_root_tasks(tree_r, tree_s) > 8


class TestExactRefinementPipeline:
    def test_answers_subset_of_candidates(self):
        m1, m2 = paper_maps(scale=0.01, include_geometry=True)
        tree_r, tree_s = build_tree(m1), build_tree(m2)
        candidates = sequential_join(tree_r, tree_s)
        geo1 = {o.oid: o.points for o in m1.objects}
        geo2 = {o.oid: o.points for o in m2.objects}
        refinement = ExactRefinement(geo1, geo2)
        answers = refinement.filter_answers(candidates.pairs)
        assert 0 < len(answers) <= candidates.candidates
        assert set(answers) <= candidates.pair_set()
        # The filter step produces false hits on real data; the refinement
        # must drop at least some of them.
        assert refinement.answers < refinement.tests
