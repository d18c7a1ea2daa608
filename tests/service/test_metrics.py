"""Latency reservoir / percentile math and the metrics trace sink."""

import math
import random

from repro.service import LatencyReservoir, ServiceMetrics, percentile
from repro.trace import EventKind, TraceEvent


def event(seq, kind, **data):
    return TraceEvent(seq=seq, time=float(seq), kind=kind, proc=-1, data=data)


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_single_sample(self):
        assert percentile([3.0], 99) == 3.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_extremes(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 100.0
        assert abs(percentile(samples, 99) - 99.01) < 0.02

    def test_order_independent(self):
        assert percentile([5.0, 1.0, 3.0], 50) == 3.0


class TestLatencyReservoir:
    def test_tracks_mean_and_max(self):
        reservoir = LatencyReservoir()
        for value in (1.0, 2.0, 3.0):
            reservoir.add(value)
        assert reservoir.count == 3
        assert reservoir.mean == 2.0
        assert reservoir.max == 3.0

    def test_capacity_bounds_memory(self):
        reservoir = LatencyReservoir(capacity=100)
        for value in range(10_000):
            reservoir.add(float(value))
        assert reservoir.count == 10_000
        assert len(reservoir._samples) == 100
        quantiles = reservoir.quantiles()
        # Reservoir sampling keeps the distribution roughly uniform.
        assert 2_000 < quantiles["p50_s"] < 8_000

    def test_quantiles_equal_a_list_backed_reservoir(self):
        """The samples are raw doubles now; a seeded stream that runs
        well past capacity gives the very quantiles the list of floats
        gave (same draws, same slots, same values)."""

        class ListReservoir(LatencyReservoir):
            def __init__(self, capacity, seed=1):
                super().__init__(capacity, seed)
                self._samples = []

        stream = random.Random(7)
        values = [stream.lognormvariate(-6.0, 1.5) for _ in range(5_000)]
        ours, reference = LatencyReservoir(capacity=512), ListReservoir(512)
        for value in values:
            ours.add(value)
            reference.add(value)
        assert list(ours._samples) == reference._samples
        got, expected = ours.quantiles(), reference.quantiles()
        assert got == expected and got["count"] == 5_000
        assert all(type(got[key]) is float for key in ("p50_s", "p95_s", "p99_s"))


class TestServiceMetricsSink:
    def test_aggregates_request_stream(self):
        metrics = ServiceMetrics()
        stream = [
            event(0, EventKind.SVC_ENGINE_START),
            event(1, EventKind.SVC_REQUEST_SUBMITTED, cls="window"),
            event(2, EventKind.SVC_REQUEST_ADMITTED, cls="window", inflight=1),
            event(3, EventKind.SVC_REQUEST_COMPLETED, cls="window",
                  latency_s=0.010, cached=0, batch=4),
            event(4, EventKind.SVC_REQUEST_SUBMITTED, cls="window"),
            event(5, EventKind.SVC_REQUEST_REJECTED, cls="window", reason="capacity"),
            event(6, EventKind.SVC_REQUEST_SUBMITTED, cls="knn"),
            event(7, EventKind.SVC_REQUEST_ADMITTED, cls="knn", inflight=3),
            event(8, EventKind.SVC_REQUEST_TIMEOUT, cls="knn"),
            event(9, EventKind.SVC_BATCH_EXECUTED, cls="window", size=4),
            event(10, EventKind.SVC_ENGINE_STOP),
        ]
        for item in stream:
            metrics.handle(item)
        report = metrics.report()
        window = report["per_class"]["window"]
        assert window["submitted"] == 2
        assert window["completed"] == 1
        assert window["rejected"] == 1
        assert window["p50_s"] == 0.010
        assert report["per_class"]["knn"]["timeouts"] == 1
        assert report["latency"]["count"] == 1
        assert metrics.queue_depth_max == 3
        assert report["batch_sizes"]["batches"] == 1
        assert report["batch_sizes"]["requests_batched"] == 4
        assert metrics.throughput(10.0) == 0.1
        # start/stop span: 10 time units, 1 completion
        assert abs(metrics.throughput() - 0.1) < 1e-12

    def test_batch_sizes_report_as_the_list_of_every_size_did(self):
        """One count per size gives the report a list of every batch's
        size gave, from a store that does not grow with the batches."""

        def from_the_list(sizes):
            return {
                "batches": len(sizes),
                "requests_batched": sum(sizes),
                "mean": (sum(sizes) / len(sizes)) if sizes else float("nan"),
                "max": max(sizes) if sizes else 0,
                "p95": percentile([float(s) for s in sizes], 95),
            }

        rng = random.Random(31)
        metrics = ServiceMetrics()
        slots = len(metrics.batch_counts)
        sizes = []
        for count in (0, 1, 2, 3, 20, 777):
            while len(sizes) < count:
                size = min(int(rng.expovariate(0.3)) + 1, slots - 1)
                sizes.append(size)
                metrics.handle(event(len(sizes), EventKind.SVC_BATCH_EXECUTED, size=size))
            got, want = metrics.report()["batch_sizes"], from_the_list(sizes)
            assert repr(got) == repr(want)
        assert len(metrics.batch_counts) == slots
