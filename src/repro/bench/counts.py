"""Work counts of one call: the interpreted and C calls it makes and the
memory it allocates.

A count does not move with the machine or its load, so a speed claim
stated as one resolves in a single run; the tier-1 file
``tests/bench/test_work_counts.py`` pins the counts of the paper's join
paths as upper bounds.  Frames of list, dict and set comprehensions are
kept in :attr:`WorkCount.frames` but not counted as calls: Python 3.12
inlines them (PEP 709), so counting them would tie a bound to one
interpreter.

This module is not imported by ``import repro``::

    from repro.bench.counts import count_work
    result, work = count_work(sequential_join, tree1, tree2)
    work.python_calls, work.c_calls, work.blocks, work.peak_bytes
"""

from __future__ import annotations

import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["WorkCount", "count_work"]

#: Code names of the frames Python 3.12 no longer creates.
INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


@dataclass(frozen=True)
class WorkCount:
    """What one call cost.

    ``frames`` counts the Python frames entered, by ``(file, function)``;
    ``python_calls`` is their sum without comprehension frames;
    ``c_calls`` counts calls into C functions; ``blocks`` is the number
    of memory blocks the call allocated that are still alive at its
    return (its result's included) and ``peak_bytes`` the peak of the
    memory it had allocated, both as ``tracemalloc`` traces them.
    """

    frames: Counter
    python_calls: int
    c_calls: int
    blocks: int
    peak_bytes: int


def count_work(fn: Callable[..., Any], *args, **kwargs) -> tuple[Any, WorkCount]:
    """Call ``fn(*args, **kwargs)`` once under ``sys.setprofile`` and
    ``tracemalloc``; return its result and its :class:`WorkCount`.

    ``tracemalloc`` must not be tracing already: the count is of this
    call only.  Any profile function set before is restored afterwards.
    """
    if tracemalloc.is_tracing():
        raise RuntimeError("count_work traces memory itself; stop tracemalloc first")
    codes: Counter = Counter()
    c_calls = 0

    def tally(frame, event, _arg):
        nonlocal c_calls
        if event == "call":
            codes[frame.f_code] += 1
        elif event == "c_call":
            c_calls += 1

    previous = sys.getprofile()
    tracemalloc.start()
    try:
        sys.setprofile(tally)
        try:
            result = fn(*args, **kwargs)
        finally:
            sys.setprofile(previous)
        peak = tracemalloc.get_traced_memory()[1]
        blocks = sum(stat.count for stat in tracemalloc.take_snapshot().statistics("filename"))
    finally:
        tracemalloc.stop()
    frames: Counter = Counter()
    for code, calls in codes.items():
        frames[code.co_filename, code.co_name] += calls
    python_calls = sum(calls for (_, name), calls in frames.items() if name not in INLINED)
    return result, WorkCount(frames, python_calls, c_calls, blocks, peak)
