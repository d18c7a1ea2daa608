"""ShardAccountingChecker on handcrafted SHD_* event streams.

The streams are named builders so that the planted-bug table
(``test_invariant_homes``) can replay them too; the ``(request, shard)``
settlement violations live there only — their one statement is the
``shard-settlement`` spec.
"""

from repro.analysis.protocol import ProtocolConformanceChecker, get_spec
from repro.trace import (
    EventKind,
    ShardAccountingChecker,
    TraceEvent,
    default_checkers,
    run_checkers,
    service_checkers,
)


class Stream:
    def __init__(self):
        self.events: list[TraceEvent] = []
        self.now = 0.0

    def emit(self, kind, proc=-1, **data):
        self.events.append(
            TraceEvent(len(self.events), self.now, kind, proc, data)
        )
        self.now += 0.001
        return self


def verdict_of(events):
    checker = ShardAccountingChecker()
    for event in events:
        checker.handle(event)
    return checker.finish()


def settlement_of(events):
    """The verdict of the spec that counts the settlements."""
    monitor = ProtocolConformanceChecker(get_spec("shard-settlement"))
    return run_checkers(events, [monitor])[0]


def topology(s):
    """Two shards for tree 'a': shard 0 owns x ∈ [0,50], shard 1 x ∈ [50,100]."""
    s.emit(EventKind.SHD_SHARD_UP, shard=0, tree="a", objects=10,
           xl=0.0, yl=0.0, xu=50.0, yu=100.0)
    s.emit(EventKind.SHD_SHARD_UP, shard=1, tree="a", objects=10,
           xl=50.0, yl=0.0, xu=100.0, yu=100.0)
    return s


def topology_join(s):
    topology(s)
    s.emit(EventKind.SHD_SHARD_UP, shard=0, tree="b", objects=5,
           xl=0.0, yl=0.0, xu=50.0, yu=100.0)
    s.emit(EventKind.SHD_SHARD_UP, shard=1, tree="b", objects=5,
           xl=50.0, yl=0.0, xu=100.0, yu=100.0)
    return s


def routed_window(s, req=1, shards="0"):
    """A small window inside shard 0, routed to *shards*."""
    s.emit(EventKind.SHD_REQUEST_ROUTED, req=req, cls="window",
           fanout=len(shards.split(",")), shards=shards, tree="a",
           xl=1.0, yl=1.0, xu=2.0, yu=2.0)
    return s


def settle(s, req, shard, rows, op="windows", replica=0, attempt=0):
    """One sub-request sent and done."""
    s.emit(EventKind.SHD_SUBREQUEST_SENT, req=req, shard=shard,
           replica=replica, attempt=attempt, op=op)
    s.emit(EventKind.SHD_SUBREQUEST_DONE, req=req, shard=shard,
           replica=replica, attempt=attempt, rows=rows)
    return s


# -- lawful streams -----------------------------------------------------------
def window_fanout_settles():
    s = topology(Stream())
    s.emit(EventKind.SHD_REQUEST_ROUTED, req=1, cls="window", fanout=2,
           shards="0,1", tree="a", xl=40.0, yl=10.0, xu=60.0, yu=20.0)
    for shard in (0, 1):
        settle(s, 1, shard, rows=3)
    s.emit(EventKind.SHD_MERGED, req=1, cls="window", rows=5, parts=6,
           duplicates=1)
    return s


def knn_with_lawful_skip():
    s = topology(Stream())
    s.emit(EventKind.SHD_REQUEST_ROUTED, req=2, cls="knn", fanout=2,
           shards="0,1", tree="a", x=10.0, y=50.0, k=2)
    settle(s, 2, 0, rows=2, op="knn")
    s.emit(EventKind.SHD_SHARD_SKIPPED, req=2, shard=1, mindist=40.0,
           kth=5.0)
    s.emit(EventKind.SHD_MERGED, req=2, cls="knn", rows=2, parts=2,
           duplicates=0)
    return s


def failover_then_success():
    s = routed_window(topology(Stream()), req=3)
    s.emit(EventKind.SHD_SUBREQUEST_SENT, req=3, shard=0, replica=0,
           attempt=0, op="windows")
    s.emit(EventKind.SHD_FAILOVER, req=3, shard=0, replica=0,
           next_replica=1, attempt=0, error="WorkerCrash")
    settle(s, 3, 0, rows=1, replica=1, attempt=1)
    s.emit(EventKind.SHD_MERGED, req=3, cls="window", rows=1, parts=1,
           duplicates=0)
    return s


def routed_join(req, each, **merged):
    """A join over both shards, *each* answering rows, merged as *merged*."""
    s = topology_join(Stream())
    s.emit(EventKind.SHD_REQUEST_ROUTED, req=req, cls="join", fanout=2,
           shards="0,1", tree_r="a", tree_s="b")
    for shard in (0, 1):
        settle(s, req, shard, rows=each, op="shard_join")
    s.emit(EventKind.SHD_MERGED, req=req, cls="join", **merged)
    return s


def join_disjoint_merge():
    return routed_join(4, 4, rows=8, parts=8, duplicates=0)


# -- violations of a rule that stays hand-written -----------------------------
def fanout_narrower_than_geometry():
    # window spans both content boxes but only shard 0 is routed
    s = topology(Stream())
    s.emit(EventKind.SHD_REQUEST_ROUTED, req=1, cls="window", fanout=1,
           shards="0", tree="a", xl=40.0, yl=10.0, xu=60.0, yu=20.0)
    return settle(s, 1, 0, rows=1)


def fanout_wider_than_geometry():
    # window sits entirely inside shard 0 yet shard 1 is routed too
    s = routed_window(topology(Stream()), shards="0,1")
    for shard in (0, 1):
        settle(s, 1, shard, rows=0)
    return s


def send_outside_routed_set():
    return settle(routed_window(topology(Stream())), 1, 1, rows=0)


def knn_one_of_two(skipped):
    """A 1-NN over two candidate shards: shard 0 answers, shard 1 is
    *skipped* (the SKIPPED payload) or silently ignored (``None``)."""
    s = topology(Stream())
    s.emit(EventKind.SHD_REQUEST_ROUTED, req=1, cls="knn", fanout=2,
           shards="0,1", tree="a", x=10.0, y=50.0, k=1)
    settle(s, 1, 0, rows=1, op="knn")
    if skipped is not None:
        s.emit(EventKind.SHD_SHARD_SKIPPED, req=1, shard=1, **skipped)
    s.emit(EventKind.SHD_MERGED, req=1, cls="knn", rows=1, parts=1,
           duplicates=0)
    return s


def equal_distance_skip():
    return knn_one_of_two({"mindist": 5.0, "kth": 5.0})  # tie — must be queried


def knn_candidate_neither_queried_nor_skipped():
    return knn_one_of_two(None)


def join_with_duplicates():
    return routed_join(1, 3, rows=5, parts=6, duplicates=1)


def join_rows_not_conserved():
    return routed_join(1, 3, rows=5, parts=6, duplicates=0)


def window_merge_inventing_rows():
    s = settle(routed_window(topology(Stream())), 1, 0, rows=2)
    s.emit(EventKind.SHD_MERGED, req=1, cls="window", rows=3, parts=2,
           duplicates=0)
    return s


class TestCleanStreams:
    def test_window_fanout_settles(self):
        verdict = verdict_of(window_fanout_settles().events)
        assert verdict.ok, verdict.violations
        assert verdict.stats["requests_routed"] == 1
        settled = settlement_of(window_fanout_settles().events)
        assert (settled.stats["sends"], settled.stats["dones"]) == (2, 2)

    def test_knn_with_lawful_skip(self):
        verdict = verdict_of(knn_with_lawful_skip().events)
        assert verdict.ok, verdict.violations
        assert verdict.stats["knn_skips"] == 1

    def test_failover_then_success(self):
        verdict = verdict_of(failover_then_success().events)
        assert verdict.ok, verdict.violations
        assert settlement_of(failover_then_success().events).stats["failovers"] == 1

    def test_join_disjoint_merge(self):
        verdict = verdict_of(join_disjoint_merge().events)
        assert verdict.ok, verdict.violations

    def test_no_shard_events_is_vacuous(self):
        verdict = verdict_of([])
        assert verdict.ok
        assert verdict.stats["requests_routed"] == 0


class TestViolations:
    def test_fanout_narrower_than_geometry(self):
        verdict = verdict_of(fanout_narrower_than_geometry().events)
        assert not verdict.ok
        assert "geometry overlaps" in verdict.violations[0]

    def test_fanout_wider_than_geometry(self):
        assert not verdict_of(fanout_wider_than_geometry().events).ok

    def test_send_outside_routed_set(self):
        verdict = verdict_of(send_outside_routed_set().events)
        assert not verdict.ok
        assert any("outside its routed set" in v for v in verdict.violations)

    def test_equal_distance_skip_is_unlawful(self):
        verdict = verdict_of(equal_distance_skip().events)
        assert not verdict.ok
        assert any("strictly above" in v for v in verdict.violations)

    def test_join_with_duplicates(self):
        verdict = verdict_of(join_with_duplicates().events)
        assert not verdict.ok
        assert any("reference-point" in v for v in verdict.violations)

    def test_join_rows_not_conserved(self):
        verdict = verdict_of(join_rows_not_conserved().events)
        assert not verdict.ok
        assert any("rows lost or invented" in v for v in verdict.violations)

    def test_knn_candidate_neither_queried_nor_skipped(self):
        verdict = verdict_of(knn_candidate_neither_queried_nor_skipped().events)
        assert not verdict.ok
        assert any("explicitly skipped" in v for v in verdict.violations)

    def test_window_merge_inventing_rows(self):
        assert not verdict_of(window_merge_inventing_rows().events).ok


class TestWiring:
    def test_rides_in_both_checker_sets(self):
        assert any(
            isinstance(c, ShardAccountingChecker) for c in default_checkers()
        )
        assert any(
            isinstance(c, ShardAccountingChecker) for c in service_checkers()
        )
