"""Load-generator runs: smoke, arrival models, hostile inputs, the CLI
that is left (healthy, checked, sharded) and the micro-batching batch
counters (slow)."""

import asyncio
import random
import re

import pytest

from repro.service import Engine, EngineConfig, batcher, fork_available, frontdoor
from repro.service import loadgen
from repro.service.loadgen import RequestFactory, build_trees, main, run_load
from repro.trace import InvariantChecker


@pytest.fixture(scope="module")
def small_world():
    return build_trees(0.005, seed=3)


def engine_target(trees, **config):
    config.setdefault("workers", 0)
    return lambda sinks: Engine(trees, EngineConfig(**config), sinks=sinks)


class TestRunLoad:
    def test_closed_loop_smoke(self, small_world):
        trees, region = small_world
        summary = asyncio.run(
            run_load(
                engine_target(trees),
                RequestFactory(region, 1),
                duration_s=0.5,
                mode="closed",
                clients=8,
                rate=0.0,
                seed=1,
            )
        )
        assert summary["submitted"] > 0
        assert summary["statuses"].get("ok", 0) > 0
        assert summary["verdicts"] is None  # a healthy run carries no sink
        report = summary["report"]
        assert report["completed"] == summary["statuses"].get("ok", 0)
        assert report["latency"]["p50_s"] > 0
        assert report["throughput_rps"] > 0

    def test_open_loop_smoke(self, small_world):
        trees, region = small_world
        summary = asyncio.run(
            run_load(
                engine_target(trees),
                RequestFactory(region, 2),
                duration_s=0.5,
                mode="open",
                clients=0,
                rate=100.0,
                seed=2,
                check_invariants=True,
            )
        )
        assert summary["submitted"] > 10
        total = sum(summary["statuses"].values())
        assert total == summary["submitted"]
        assert summary["verdicts"] and all(v.ok for v in summary["verdicts"])

    def test_unknown_mode_rejected(self, small_world):
        trees, region = small_world
        with pytest.raises(ValueError):
            asyncio.run(
                run_load(
                    engine_target(trees), RequestFactory(region, 0),
                    duration_s=0.1, mode="sideways", clients=1, rate=1.0,
                    seed=0,
                )
            )

    @pytest.mark.parametrize(
        "drive, message",
        [
            pytest.param(dict(mode="open", rate=0.0), "rate > 0", id="rate-0"),
            pytest.param(
                dict(mode="open", rate=float("nan")), "rate > 0", id="rate-nan"
            ),
            pytest.param(
                dict(mode="closed", clients=0), ">= 1 client", id="clients-0"
            ),
            pytest.param(
                dict(duration_s=0.0), "duration must be > 0", id="duration-0"
            ),
            pytest.param(
                dict(duration_s=float("nan")), "duration must be > 0",
                id="duration-nan",
            ),
        ],
    )
    def test_hostile_drive_builds_nothing(
        self, small_world, drive, message
    ):
        _, region = small_world
        built = []
        drive = {
            "duration_s": 0.1, "mode": "closed", "clients": 1, "rate": 1.0,
            **drive,
        }
        with pytest.raises(ValueError, match=message):
            asyncio.run(
                run_load(built.append, RequestFactory(region, 0), seed=0, **drive)
            )
        assert not built


class TestRequestFactory:
    def test_mix_is_seeded_and_in_bounds(self, small_world):
        _, region = small_world
        factory = RequestFactory(region, seed=11, knn_share=0.3, join_share=0.1)
        rng_a, rng_b = random.Random(5), random.Random(5)
        made_a = [factory.make(rng_a) for _ in range(50)]
        made_b = [factory.make(rng_b) for _ in range(50)]
        assert [type(r).__name__ for r in made_a] == [
            type(r).__name__ for r in made_b
        ]
        classes = {type(r).__name__ for r in made_a}
        assert "WindowRequest" in classes
        for request in made_a:
            if type(request).__name__ == "WindowRequest":
                assert 0 <= request.window.xl <= request.window.xu <= region.side

    @pytest.mark.parametrize(
        "shares, message",
        [
            (dict(join_share=1.5), "join_share must be in [0, 1], got 1.5"),
            (dict(join_share=-1.0), "join_share must be in [0, 1], got -1.0"),
            (dict(knn_share=float("nan")), "knn_share must be in [0, 1]"),
            (dict(hot_fraction=1.25), "hot_fraction must be in [0, 1]"),
            (
                dict(knn_share=0.7, join_share=0.6),
                "knn_share + join_share must be <= 1, got 0.7 + 0.6",
            ),
        ],
        ids=["join-1.5", "join-negative", "knn-nan", "hot-1.25", "sum-1.3"],
    )
    def test_an_impossible_mix_is_refused_by_name(
        self, small_world, shares, message
    ):
        _, region = small_world
        with pytest.raises(ValueError, match=re.escape(message)):
            RequestFactory(region, 1, **shares)


#: a quarter-second thread-mode engine run: what every non-slow CLI row uses
QUICK = ["--duration", "0.25", "--scale", "0.005", "--clients", "4",
         "--workers", "0", "--seed", "3"]


class TestCli:
    def test_healthy_run_prints_the_report_and_keeps_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(QUICK) == 0
        out = capsys.readouterr().out
        assert float(re.search(r"throughput: ([\d.]+) req/s", out)[1]) > 0
        assert "checked run" not in out and "faults injected" not in out
        assert not list(tmp_path.iterdir())

    def test_a_fault_plan_makes_the_run_a_checked_run(self, capsys):
        assert main(QUICK + ["--slow-p", "0.2"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"faults injected: \{'crashes': 0, .*'slow_ios': [1-9]", out)
        assert "checked run: all green" in out and "protocol:service-ledger" in out

    def test_a_red_verdict_is_exit_1_and_named(self, monkeypatch, capsys):
        class Planted(InvariantChecker):
            name = "planted-checker"

            def observe(self, event):
                pass

            def at_end(self):
                self._violate("planted violation")

        monkeypatch.setattr(loadgen, "service_checkers", lambda: [Planted()])
        assert main(QUICK + ["--slow-p", "0.2"]) == 1
        out = capsys.readouterr().out
        assert "CHECK FAILED: planted-checker" in out
        assert "planted violation" in out
        # decided from the inputs: a healthy run is not checked at all
        assert main(QUICK) == 0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mode", "open", "--rate", "0"], "rate > 0"),
            (["--clients", "0"], ">= 1 client"),
            (["--duration", "0"], "duration must be > 0"),
            (["--crash-p", "1.5"], "worker_crash_p must be in"),
            (["--shards", "2", "--replicas", "0"], "replicas must be an integer >= 1"),
            (["--join-share", "1.5"], "join_share must be in [0, 1]"),
            (["--join-share", "0.95"], "knn_share + join_share must be <= 1"),
        ],
        ids=[
            "rate-0", "clients-0", "duration-0", "crash-p-1.5", "replicas-0",
            "join-share-1.5", "join-share-0.95",
        ],
    )
    def test_hostile_flags_are_a_usage_error(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exit_info:
            main(QUICK + flags)  # argparse keeps the last value of a flag
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.slow
    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_sharded_run_fails_over_forked_crashes(self, capsys):
        exit_code = main(
            ["--shards", "2", "--replicas", "2", "--workers", "2",
             "--crash-p", "0.1", "--duration", "1", "--scale", "0.005"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0, out
        assert int(re.search(r"failovers: (\d+)", out)[1]) > 0
        crashes = int(re.search(r"'crashes': (\d+)", out)[1])
        assert crashes > 0  # a death is an event: every one is detected
        assert int(re.search(r"'crashes_detected': (\d+)", out)[1]) == crashes
        assert "checked run: all green" in out and "shard-accounting" in out


@pytest.mark.slow
class TestLoadAcceptance:
    def test_batching_beats_batch_size_one(self, small_world, monkeypatch):
        """Same closed-loop workload, cache off, windows only: with
        micro-batching every pool call is one shared traversal answering
        several requests; without it every request pays its own.  The
        throughput consequence is a `perf` number (`serve-mix`:
        `service.engine.nobatch_req_per_s` vs `req_per_s`), not a tier-1
        assertion."""
        trees, region = small_world
        factory = RequestFactory(
            region, seed=13, knn_share=0.0, hot_fraction=0.0,
            min_side=0.15, max_side=0.4,
        )
        monkeypatch.setattr(batcher, "WINDOW_S", 0.005)
        monkeypatch.setattr(batcher, "MAX_BATCH", 32)
        monkeypatch.setattr(frontdoor, "DEFAULT_TIMEOUT_S", 30.0)

        def run(batching):
            return asyncio.run(
                run_load(
                    engine_target(
                        trees,
                        batching=batching,
                        cache_capacity=0,
                        max_inflight=256,
                    ),
                    factory,
                    duration_s=2.0,
                    mode="closed",
                    clients=48,
                    rate=0.0,
                    seed=13,
                )
            )

        unbatched = run(False)
        batched = run(True)
        assert unbatched["report"]["completed"] > 0
        # No coalescing at all: one traversal per answered request.
        assert unbatched["report"]["batch_sizes"]["batches"] == 0
        batches = batched["report"]["batch_sizes"]
        assert batches["mean"] > 2  # coalescing actually happened
        # Every completed request rode in a batch, and the shared
        # traversals number well below the requests they answered.
        assert batches["requests_batched"] >= batched["report"]["completed"] > 0
        assert batches["batches"] < batched["report"]["completed"]
