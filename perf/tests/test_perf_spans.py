"""Span parenting across asyncio tasks and self-time arithmetic."""

import asyncio
import json

from perf.spans import NULL, Recorder, self_times


def test_self_time_subtracts_the_union_of_overlapping_children():
    rows = [
        ["phase", -1, 0.0, 10.0, None],
        ["submit", 0, 1.0, 4.0, 1],
        ["submit", 0, 3.0, 6.0, 2],  # overlaps the first by one second
        ["submit", 0, 8.0, 12.0, 3],  # clipped to the parent's end
        ["inner", 1, 1.5, 2.0, 1],
    ]
    own = self_times(rows)
    assert own[0] == 10.0 - (5.0 + 2.0)
    assert own[1] == 3.0 - 0.5
    assert own[2] == 3.0 and own[4] == 0.5


def test_requests_started_inside_a_span_are_parented_to_it(tmp_path):
    recorder = Recorder()

    async def request(rid):
        with recorder.span("Engine.submit", rid=rid):
            await asyncio.sleep(0)

    async def phase():
        with recorder.span("phase.closed"):
            await asyncio.gather(*(request(i) for i in range(3)))
        with recorder.span("verify"):
            pass

    asyncio.run(phase())
    recorder.count("requests", 3)
    path = tmp_path / "trace.jsonl"
    recorder.write(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    spans = [row for row in lines if "name" in row]
    assert [s["parent"] for s in spans] == [None, 0, 0, 0, None]
    assert sorted(s["rid"] for s in spans if s["name"] == "Engine.submit") == [0, 1, 2]
    assert all(s["end"] >= s["start"] and s["self_s"] >= 0 for s in spans)
    assert lines[-1] == {"count": "requests", "value": 3}
    assert len(recorder.durations("Engine.submit")) == 3


def test_null_recorder_is_inert():
    with NULL.span("anything", rid=1):
        NULL.count("x")
    assert not NULL.enabled
