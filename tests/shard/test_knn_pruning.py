"""Cross-shard kNN pruning: skips are provably safe, ties are never pruned.

Two hand-built geometries pin the pruning contract:

* a two-cluster layout where the far shard's mindist exceeds the k-th
  best distance, so it must be *skipped* (``SHD_SHARD_SKIPPED``, no
  sub-request sent) without changing the answer;
* a mirror-symmetric layout where both shards sit at *exactly* the k-th
  distance — an equal bound must still be queried (strict-inequality
  prune) so boundary ties resolve by ``oid_order_key`` identically to a
  single tree.
"""

import asyncio

import pytest

from repro.geometry.rect import Rect
from repro.rtree.bulk import str_bulk_load
from repro.rtree.query import nearest_neighbors
from repro.service.model import KNNRequest, Status
from repro.shard import ShardConfig, ShardRouter, mindist, sharded_knn
from repro.shard.partition import build_sharded
from repro.trace import EventKind, ListSink, run_checkers, service_checkers


def point(oid, x, y):
    return (oid, Rect(x, y, x, y))


# Wide region → grid K=2 splits on x, boundary at the midline.
CLUSTERED = {
    "pts": [
        # left cluster around (10, 50)
        point(0, 8, 50), point(1, 10, 52), point(2, 12, 48), point(3, 9, 51),
        # right cluster around (90, 50)
        point(10, 88, 50), point(11, 90, 52), point(12, 92, 48),
        # padding pins the fitted bounds to x ∈ [0, 100]
        point(20, 0, 45), point(21, 100, 55),
    ]
}

MIRROR = {
    "pts": [
        # equidistant from (50, 50), one on each side of the x=50 cut;
        # the lower oid is on the LEFT so a left-first scan that pruned
        # the right shard on an equal bound would return the wrong oid
        # only if oid_order_key prefers 3 — which it does.
        point(5, 40, 50),
        point(3, 60, 50),
        point(20, 0, 45), point(21, 100, 55),
        point(22, 0, 55), point(23, 100, 45),
    ]
}


class TestOpsLevelPruning:
    def test_far_shard_is_skipped_with_strict_bound(self):
        sharded = build_sharded(CLUSTERED, 2, mode="grid")
        skipped = []
        got = sharded_knn(sharded, "pts", 5.0, 50.0, 3, skipped=skipped)
        oracle = str_bulk_load(CLUSTERED["pts"])
        want = tuple(
            (float(d), e.oid)
            for d, e in nearest_neighbors(oracle, 5.0, 50.0, k=3)
        )
        assert got == want
        assert skipped, "the right-hand cluster shard must be pruned"
        for shard, bound, kth in skipped:
            assert bound > kth
            # the skip is safe: mindist to that shard's content really
            # is beyond everything we returned
            mbr = sharded.content_mbrs[shard]["pts"]
            assert mindist(mbr, 5.0, 50.0) > got[-1][0]

    def test_equal_bound_is_never_pruned(self):
        sharded = build_sharded(MIRROR, 2, mode="grid")
        skipped = []
        got = sharded_knn(sharded, "pts", 50.0, 50.0, 1, skipped=skipped)
        oracle = str_bulk_load(MIRROR["pts"])
        want = tuple(
            (float(d), e.oid)
            for d, e in nearest_neighbors(oracle, 50.0, 50.0, k=1)
        )
        assert got == want
        assert got[0] == (10.0, 3), "tie must resolve by oid order"
        # both shards sit at bound == kth == 10: neither may be skipped
        assert skipped == []


class TestRouterLevelPruning:
    def run_knn(self, datasets, x, y, k):
        sink = ListSink()

        async def main():
            cfg = ShardConfig(shards=2, replicas=1, workers=0,
                              cache_capacity=0)
            async with ShardRouter(datasets, cfg, sinks=[sink]) as router:
                response = await router.submit(KNNRequest("pts", x, y, k))
                assert response.status is Status.OK
                return response.value

        value = asyncio.run(main())
        verdicts = run_checkers(sink.events, service_checkers())
        assert all(v.ok for v in verdicts), [
            (v.checker, v.violations) for v in verdicts if not v.ok
        ]
        return value, sink.events

    def test_skip_event_and_no_subrequest_to_pruned_shard(self):
        value, events = self.run_knn(CLUSTERED, 5.0, 50.0, 3)
        skips = [e for e in events if e.kind == EventKind.SHD_SHARD_SKIPPED]
        assert len(skips) == 1
        skip = skips[0]
        assert skip.data["mindist"] > skip.data["kth"]
        sent_shards = {
            e.data["shard"] for e in events
            if e.kind == EventKind.SHD_SUBREQUEST_SENT
        }
        assert skip.data["shard"] not in sent_shards
        # the skipped shard was still a routing candidate
        routed = [e for e in events
                  if e.kind == EventKind.SHD_REQUEST_ROUTED]
        assert str(skip.data["shard"]) in routed[0].data["shards"].split(",")

    def test_boundary_tie_queries_both_shards(self):
        value, events = self.run_knn(MIRROR, 50.0, 50.0, 1)
        assert value == ((10.0, 3),)
        skips = [e for e in events if e.kind == EventKind.SHD_SHARD_SKIPPED]
        assert skips == []
        sent_shards = {
            e.data["shard"] for e in events
            if e.kind == EventKind.SHD_SUBREQUEST_SENT
        }
        assert sent_shards == {0, 1}
