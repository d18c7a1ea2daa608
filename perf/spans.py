"""The traced pass's span recorder.

One span per call across a layer boundary — name, start, end, the span
that caused it and a per-request id — recorded from the benchmark's own
files around the calls into ``src/repro``.  Spans stay in memory and are
written as JSONL when the workload ends.  The current span lives in a
``contextvars`` variable, so a request coroutine started inside a phase
span is parented to it however the event loop interleaves requests.

The untraced pass uses :data:`NULL`, whose ``span()`` hands back one
shared no-op context manager.
"""

from __future__ import annotations

import contextvars
import json
import time
from collections import defaultdict
from typing import Optional

__all__ = ["Recorder", "NULL", "self_times"]

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perf_span", default=-1)


class _Span:
    __slots__ = ("recorder", "index", "token")

    def __init__(self, recorder: "Recorder", index: int):
        self.recorder = recorder
        self.index = index

    def __enter__(self):
        self.token = _CURRENT.set(self.index)
        self.recorder.rows[self.index][2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.recorder.rows[self.index][3] = time.perf_counter()
        _CURRENT.reset(self.token)
        return False


class Recorder:
    """In-memory span and count store of one traced workload."""

    enabled = True

    def __init__(self):
        # [name, parent, start, end, rid]
        self.rows: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)

    def span(self, name: str, rid: Optional[int] = None) -> _Span:
        self.rows.append([name, _CURRENT.get(), 0.0, 0.0, rid])
        return _Span(self, len(self.rows) - 1)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def durations(self, name: str) -> list[float]:
        """Durations (seconds) of every finished span called *name*."""
        return [r[3] - r[2] for r in self.rows if r[0] == name and r[3]]

    def write(self, path) -> None:
        own = self_times(self.rows)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, start, end, rid) in enumerate(self.rows):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "parent": None if parent < 0 else parent,
                            "rid": rid,
                            "start": start,
                            "end": end,
                            "self_s": own[index],
                        }
                    )
                    + "\n"
                )
            for name, value in sorted(self.counts.items()):
                handle.write(json.dumps({"count": name, "value": value}) + "\n")


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullRecorder:
    enabled = False
    _span = _NullSpan()

    def span(self, name: str, rid: Optional[int] = None) -> _NullSpan:
        return self._span

    def count(self, name: str, amount: float = 1) -> None:
        pass


NULL = _NullRecorder()


def self_times(rows: list) -> list[float]:
    """Per span: its duration minus the part of it its children cover.

    Concurrent children (requests under one phase span) overlap, so the
    covered part is the length of the *union* of the child intervals,
    clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, parent, start, end, _rid in rows:
        if parent >= 0:
            children[parent].append((start, end))
    own = []
    for index, (_name, _parent, start, end, _rid) in enumerate(rows):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own.append(max(0.0, (end - start) - covered))
    return own
