"""Load-generator runs: smoke, arrival models, JSON emission and the
micro-batching throughput comparison (slow)."""

import asyncio
import json
import random

import pytest

from repro.service import EngineConfig
from repro.service.loadgen import RequestFactory, build_trees, main, run_load


@pytest.fixture(scope="module")
def small_world():
    return build_trees(0.005, seed=3)


class TestRunLoad:
    def test_closed_loop_smoke(self, small_world):
        trees, region = small_world
        summary = asyncio.run(
            run_load(
                trees,
                region,
                duration_s=0.5,
                mode="closed",
                clients=8,
                rate=0.0,
                seed=1,
                config=EngineConfig(workers=0, default_timeout_s=10.0),
            )
        )
        assert summary["submitted"] > 0
        assert summary["statuses"].get("ok", 0) > 0
        report = summary["report"]
        assert report["completed"] == summary["statuses"].get("ok", 0)
        assert report["latency"]["p50_s"] > 0
        assert report["throughput_rps"] > 0

    def test_open_loop_smoke(self, small_world):
        trees, region = small_world
        summary = asyncio.run(
            run_load(
                trees,
                region,
                duration_s=0.5,
                mode="open",
                clients=0,
                rate=100.0,
                seed=2,
                config=EngineConfig(workers=0, default_timeout_s=10.0),
            )
        )
        assert summary["submitted"] > 10
        total = sum(summary["statuses"].values())
        assert total == summary["submitted"]

    def test_unknown_mode_rejected(self, small_world):
        trees, region = small_world
        with pytest.raises(ValueError):
            asyncio.run(
                run_load(
                    trees, region, duration_s=0.1, mode="sideways",
                    clients=1, rate=1.0, seed=0,
                )
            )


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


@pytest.mark.slow
class TestLoadAcceptance:
    def test_cli_emits_bench_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JSON_DIR", str(tmp_path))
        exit_code = main(
            [
                "--duration", "1.0",
                "--scale", "0.005",
                "--clients", "16",
                "--workers", "0",
                "--seed", "3",
            ]
        )
        assert exit_code == 0
        payload = json.loads((tmp_path / "BENCH_service.json").read_text())
        assert payload["bench"] == "service"
        assert payload["latency_p50_s"] > 0
        assert payload["latency_p99_s"] >= payload["latency_p50_s"]
        assert payload["throughput_rps"] > 0
        assert payload["config"]["clients"] == 16
        assert payload["run"]["statuses"]["ok"] > 0

    def test_batching_beats_batch_size_one(self, small_world):
        """Same closed-loop workload, cache off, windows only: with
        micro-batching every pool call is one shared traversal answering
        several requests; without it every request pays its own.  The
        throughput consequence is a bench number (wall-clock, flaky on
        small boxes), not a tier-1 assertion."""
        trees, region = small_world
        factory = RequestFactory(
            region, seed=13, knn_share=0.0, hot_fraction=0.0,
            min_side=0.15, max_side=0.4,
        )

        def run(batching):
            return asyncio.run(
                run_load(
                    trees,
                    region,
                    duration_s=2.0,
                    mode="closed",
                    clients=48,
                    rate=0.0,
                    seed=13,
                    factory=factory,
                    config=EngineConfig(
                        workers=0,
                        batching=batching,
                        batch_window_s=0.005,
                        max_batch=32,
                        cache_capacity=0,
                        default_timeout_s=30.0,
                        max_inflight=256,
                    ),
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
