"""Open- and closed-loop load generation on one event loop.

One OS thread of one process generates all load, no sockets.  The clock
and the sleep are parameters so the self-tests can drive the scheduler
with a fake clock.

**Open loop** — independent users: request *i* is sent at its due time
whatever happened to the requests before it.  Latency is timed from the
*due* time, not the send time, so a stall in the generator or the engine
shows up in the latency of every request it delayed; how late the
generator itself ran (send minus due) is recorded per request as *lag*.

**Closed loop** — callers that each wait for their reply: N clients, each
sending its next request the moment the previous one returns.

A request counts as measured when it falls *after* the warm-up (by due
time in the open loop, by send time in the closed loop); warm-up
requests are sent and awaited like any other but leave no sample.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Optional, Sequence

__all__ = ["Sample", "PhaseResult", "open_loop", "closed_loop", "VERIFY_EVERY"]

#: One measured request in this many keeps its value for the oracle.
VERIFY_EVERY = 50


@dataclass
class Sample:
    """One measured request."""

    request: tuple
    #: The reply's status value, or ``"raised"`` when submit raised.
    status: str
    latency_s: float
    lag_s: float
    #: The reply's value, kept for 1 in VERIFY_EVERY ok requests.
    value: Optional[tuple] = None


@dataclass
class PhaseResult:
    samples: list = field(default_factory=list)
    #: Seconds the samples cover: the offered window of an open loop,
    #: warm-up end to the last reply of a closed loop.
    measured_s: float = 0.0

    def ok(self) -> list:
        return [s for s in self.samples if s.status == "ok"]


#: ``issue(index, request) -> (status, value)``; the workload wraps the
#: engine's submit (and, in the traced pass, a span) behind it.
Issue = Callable[[int, tuple], Awaitable[tuple]]


async def _one(
    issue: Issue, index: int, request: tuple, origin: float, sent: float,
    measured: bool, keep: bool, clock, out: PhaseResult,
) -> None:
    try:
        status, value = await issue(index, request)
    except asyncio.CancelledError:
        raise
    except Exception:  # the request failed; the run goes on and counts it
        status, value = "raised", None
    if measured:
        out.samples.append(
            Sample(
                request, status, clock() - origin, sent - origin,
                value if keep and status == "ok" else None,
            )
        )


async def open_loop(
    issue: Issue,
    schedule: Sequence[float],
    requests: Sequence[tuple],
    *,
    warmup_s: float,
    duration_s: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], Awaitable] = asyncio.sleep,
    keep_offset: int = 0,
) -> PhaseResult:
    """Send ``requests[i]`` at ``schedule[i]`` seconds after the start.

    *schedule* spans warm-up plus measured time; requests due before
    *warmup_s* are not sampled.  Returns once every request has a
    terminal outcome.
    """
    out = PhaseResult()
    start = clock()
    tasks = []
    for index, (due, request) in enumerate(zip(schedule, requests)):
        target = start + due
        now = clock()
        if target > now:
            await sleep(target - now)
            now = clock()
        tasks.append(
            asyncio.ensure_future(
                _one(
                    issue, index, request, target, now, due >= warmup_s,
                    index % VERIFY_EVERY == keep_offset, clock, out,
                )
            )
        )
    if tasks:
        await asyncio.gather(*tasks)
    # The offered window, not the time to the last straggler's reply.
    out.measured_s = duration_s - warmup_s
    return out


async def closed_loop(
    issue: Issue,
    make_request: Callable[[int], Callable[[], tuple]],
    *,
    clients: int,
    warmup_s: float,
    duration_s: float,
    clock: Callable[[], float] = time.perf_counter,
    keep_offset: int = 0,
) -> PhaseResult:
    """*clients* coroutines, each issuing back to back until the end.

    ``make_request(client)`` returns that client's request source (its
    own seeded stream).  Requests sent during the first *warmup_s* are
    not sampled.
    """
    out = PhaseResult()
    start = clock()
    warm_end = start + warmup_s
    end = start + duration_s

    async def client(number: int) -> None:
        source = make_request(number)
        sequence = 0
        while True:
            sent = clock()
            if sent >= end:
                return
            index = sequence * clients + number
            sequence += 1
            await _one(
                issue, index, source(), sent, sent, sent >= warm_end,
                index % VERIFY_EVERY == keep_offset, clock, out,
            )

    await asyncio.gather(*(client(number) for number in range(clients)))
    out.measured_s = clock() - warm_end
    return out
