"""The load loops under a fake clock: latency from the due time, generator
lag, warm-up exclusion."""

import asyncio

from perf.loadloop import closed_loop, open_loop


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    async def sleep(self, seconds: float) -> None:
        wake = self.now + seconds
        await asyncio.sleep(0)  # let the requests already sent run
        self.now = max(self.now, wake)


def make_issue(clock: FakeClock, service_s):
    """A server that blocks the whole loop for each request's service
    time — the stall an open loop must not hide."""

    async def issue(index: int, request: tuple):
        clock.now += service_s[index]
        return "ok", ("value", index)

    return issue


def test_open_loop_times_from_due_and_records_lag():
    clock = FakeClock()
    schedule = [0.0, 1.0, 2.0, 3.0]
    requests = [("window", "map1", (0, 0, 1, 1))] * 4
    # request 1 stalls the loop for 2.5 s: request 2 (due at +2 s) can only
    # be sent at +3.5 s, request 3 (due at +3 s) right behind it
    service = [0.25, 2.5, 0.25, 0.25]
    phase = asyncio.run(
        open_loop(
            make_issue(clock, service), schedule, requests,
            warmup_s=1.5, duration_s=4.0, clock=clock, sleep=clock.sleep,
        )
    )
    # requests due before the warm-up end were sent but left no sample
    assert [s.status for s in phase.samples] == ["ok", "ok"]
    assert [round(s.lag_s, 6) for s in phase.samples] == [1.5, 0.5]
    # latency runs from the due time: lag + queueing + service
    assert [round(s.latency_s, 6) for s in phase.samples] == [1.75, 1.0]
    assert phase.measured_s == 2.5


def test_open_loop_counts_a_raising_submit_as_a_failed_sample():
    clock = FakeClock()

    async def issue(index, request):
        raise RuntimeError("boom")

    phase = asyncio.run(
        open_loop(
            issue, [0.0, 0.5], [("knn", "map1", 0.0, 0.0, 1)] * 2,
            warmup_s=0.0, duration_s=1.0, clock=clock, sleep=clock.sleep,
        )
    )
    assert [s.status for s in phase.samples] == ["raised", "raised"]
    assert phase.ok() == []


def test_open_loop_keeps_one_value_in_fifty():
    clock = FakeClock()
    count = 120
    phase = asyncio.run(
        open_loop(
            make_issue(clock, [0.001] * count),
            [0.01 * i for i in range(count)],
            [("window", "map1", (0, 0, 1, 1))] * count,
            warmup_s=0.0, duration_s=2.0, clock=clock, sleep=clock.sleep,
            keep_offset=7,
        )
    )
    kept = [s.value[1] for s in phase.samples if s.value is not None]
    assert kept == [7, 57, 107]


def test_closed_loop_excludes_warmup_and_measures_to_last_reply():
    clock = FakeClock()

    async def issue(index, request):
        clock.now += 0.5
        return "ok", None

    phase = asyncio.run(
        closed_loop(
            issue, lambda client: (lambda: ("knn", "map1", 0.0, 0.0, 1)),
            clients=1, warmup_s=1.0, duration_s=3.0, clock=clock,
        )
    )
    # sent at +0, +0.5 (warm-up), then +1.0 .. +2.5
    assert len(phase.samples) == 4
    assert all(s.latency_s == 0.5 and s.lag_s == 0.0 for s in phase.samples)
    assert phase.measured_s == 2.0
