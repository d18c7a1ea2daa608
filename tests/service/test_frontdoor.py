"""The one serving front door: both tiers validate alike, report the same
snapshot shape, and the shared code exists exactly once in the source."""

import ast
import asyncio
import math
import re
from pathlib import Path

import pytest

import repro
from repro.rtree.bulk import str_bulk_load
from repro.service import (
    Engine,
    EngineConfig,
    FrontDoor,
    JoinRequest,
    KNNRequest,
    Status,
    WindowRequest,
)
from repro.shard import ShardConfig, ShardRouter
from repro.trace import ListSink, run_checkers, service_checkers
from tests.shard.test_router import make_items

SRC = Path(repro.__file__).parent
NAN, INF = math.nan, math.inf


DATASETS = {"a": make_items(100, 1), "b": make_items(80, 2)}


def make_engine(sinks=(), **settings):
    trees = {name: str_bulk_load(items) for name, items in DATASETS.items()}
    return Engine(trees, EngineConfig(**{"workers": 0, **settings}), sinks=sinks)


def make_router(sinks=(), **settings):
    config = ShardConfig(**{"shards": 2, "workers": 0, **settings})
    return ShardRouter(DATASETS, config, sinks=sinks)


TIERS = [make_engine, make_router]

#: (request, the field its ERROR detail must name)
HOSTILE = [
    (WindowRequest("a", (NAN, 0.0, 1.0, 1.0)), "window.xl"),
    (WindowRequest("a", (0.0, 0.0, 1.0, INF)), "window.yu"),
    (WindowRequest("a", (0.0, -INF, 1.0, 1.0)), "window.yl"),
    (JoinRequest("a", "b", window=(0.0, 0.0, NAN, 1.0)), "window.xu"),
    (KNNRequest("a", NAN, 1.0, 3), "x "),
    (KNNRequest("a", 1.0, INF, 3), "y "),
    (KNNRequest("a", 1.0, 1.0, 0), "k "),
    (KNNRequest("a", 1.0, 1.0, -1), "k "),
    (KNNRequest("a", 1.0, 1.0, 2.5), "k "),
    (KNNRequest("a", 1.0, 1.0, True), "k "),
    (WindowRequest("nope", (0.0, 0.0, 1.0, 1.0)), "'nope'"),
    (JoinRequest("a", "nope"), "'nope'"),
]


def serve(make, requests, **submit):
    """Responses, the stopped tier and its event stream."""
    sink = ListSink()

    async def main():
        async with make([sink]) as tier:
            return [await tier.submit(r, **submit) for r in requests], tier

    responses, tier = asyncio.run(main())
    return responses, tier, sink


class TestHostileRequests:
    def test_both_tiers_answer_the_same_error_and_cache_nothing(self):
        requests = [request for request, _ in HOSTILE]
        answers = []
        for make in TIERS:
            responses, tier, sink = serve(make, requests + requests)
            for response, (request, names) in zip(responses, HOSTILE + HOSTILE):
                assert response.status is Status.ERROR, request
                assert names in response.detail, (request, response.detail)
            # No key was ever formed: no lookup, no insert, nothing held.
            assert tier.cache.lookups == tier.cache.inserts == len(tier.cache) == 0
            errors = sum(
                c["errors"] for c in tier.metrics.report()["per_class"].values()
            )
            assert errors == len(responses)
            verdicts = run_checkers(sink.events, service_checkers())
            assert all(v.ok for v in verdicts), [v.violations for v in verdicts]
            answers.append([(r.status, r.detail) for r in responses])
        assert answers[0] == answers[1]

    @pytest.mark.parametrize("make", TIERS)
    def test_a_valid_request_still_caches_next_to_hostile_ones(self, make):
        good = WindowRequest("a", (0.0, 0.0, 50.0, 50.0))
        responses, tier, _ = serve(make, [good, HOSTILE[0][0], good])
        assert [r.status for r in responses] == [
            Status.OK, Status.ERROR, Status.OK
        ]
        assert responses[2].cached and responses[2].value == responses[0].value
        assert (tier.cache.inserts, tier.cache.hits) == (1, 1)

    @pytest.mark.parametrize("make", TIERS)
    def test_a_nan_timeout_is_an_error_not_a_timeout(self, make):
        good = WindowRequest("a", (0.0, 0.0, 50.0, 50.0))
        (response,), tier, sink = serve(make, [good], timeout=NAN)
        assert response.status is Status.ERROR
        assert "timeout" in response.detail, response.detail
        report = tier.metrics.report()
        assert report["timeouts"] == 0 and tier.cache.lookups == 0
        verdicts = run_checkers(sink.events, service_checkers())
        assert all(v.ok for v in verdicts), [v.violations for v in verdicts]


#: Settings under which a tier would serve nothing (every request
#: rejected, or failed before it reaches a worker), per tier; a count
#: that is no integer (a bool is none) is refused like one under its floor.
SHARED_BAD = [
    ("max_inflight", 0), ("max_inflight", -3), ("workers", -1),
    ("cache_capacity", -1), ("attempt_timeout_s", 0.0),
    ("attempt_timeout_s", -1.0), ("attempt_timeout_s", NAN),
    ("workers", 1.5), ("workers", 2.0), ("workers", True),
    ("max_inflight", 2.5), ("cache_capacity", 2.5),
]
BAD_SETTINGS = [
    pytest.param(make, name, value, id=f"{tier}-{name}-{value}")
    for tier, make, extra in (
        ("engine", make_engine, []),
        ("router", make_router, [
            ("shards", 0), ("replicas", 0), ("shards", 2.5),
            ("shards", True), ("replicas", 1.5),
        ]),
    )
    for name, value in SHARED_BAD + extra
]


class TestSettings:
    @pytest.mark.parametrize("make, name, value", BAD_SETTINGS)
    def test_a_setting_that_serves_nothing_is_refused_by_name(
        self, make, name, value
    ):
        with pytest.raises(ValueError) as refused:
            make(**{name: value})
        expected = (
            rf"{name} must be (an integer )?>=? \S+, "
            rf"got {re.escape(repr(value))}"
        )
        assert re.fullmatch(expected, str(refused.value)), refused.value


#: Each tier's top-level ``snapshot()`` keys, as ``perf/`` and ``loadgen``
#: read them; the first five come from ``FrontDoor.snapshot``.
COMMON_KEYS = {
    "metrics", "cache", "inflight", "running", "faults_injected",
    "breakers", "supervisor", "pool", "shards",
}


class TestSnapshotShape:
    def test_top_level_keys_are_pinned_per_tier(self):
        (_, engine, _), (_, router, _) = (serve(make, []) for make in TIERS)
        assert set(engine.snapshot()) == COMMON_KEYS
        assert set(router.snapshot()) == COMMON_KEYS | {"partition"}
        for key in ("metrics", "cache", "pool"):
            assert set(engine.snapshot()[key]) == set(router.snapshot()[key])


class TestWrittenOnce:
    """The front door has one definition; a second copy is a regression."""

    SHARED = (
        "submit", "start", "stop", "__aenter__", "__aexit__", "_process",
        "_reject", "_emit", "_now", "inflight", "_in_slot", "__repr__",
    )

    def test_tiers_inherit_the_front_door(self):
        for tier in (Engine, ShardRouter):
            assert issubclass(tier, FrontDoor)
            redefined = [name for name in self.SHARED if name in vars(tier)]
            assert not redefined, (tier.__name__, redefined)

    def test_each_request_event_has_one_emit_site(self):
        sites: dict[str, list[str]] = {}
        semaphores = set()
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            text = path.read_text(encoding="utf-8")
            if rel.startswith(("service/", "shard/")) and "asyncio.Semaphore(" in text:
                semaphores.add(rel)
            for node in ast.walk(ast.parse(text)):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("emit", "_emit")
                    and node.args
                    and isinstance(node.args[0], ast.Attribute)
                    and node.args[0].attr.startswith("SVC_REQUEST_")
                ):
                    sites.setdefault(node.args[0].attr, []).append(
                        f"{rel}:{node.lineno}"
                    )
        for kind in ("SUBMITTED", "ADMITTED", "COMPLETED", "TIMEOUT",
                     "CANCELLED", "REJECTED"):
            found = sites.get(f"SVC_REQUEST_{kind}", [])
            assert len(found) == 1, (kind, found)
            assert found[0].startswith("service/frontdoor.py:"), found
        assert semaphores == {"service/frontdoor.py"}
