"""Result containers for sequential and parallel spatial joins."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..geometry.rows import PairTable
from ..sim.metrics import Metrics, ProcessorTimes
from ..trace import TraceHandle

__all__ = ["SequentialJoinResult", "ParallelJoinResult"]


@dataclass
class SequentialJoinResult:
    """Outcome of the in-memory sequential filter step ([BKS 93]).

    ``pairs`` is a :class:`~repro.geometry.rows.PairTable` of the
    ``(oid_r, oid_s)`` candidates in the order they were produced — the
    local plane-sweep order when the sweep is enabled.  Both backends
    collect it as two oid columns; no tuple a pair is made on the way.
    """

    pairs: PairTable
    node_pairs_visited: int = 0
    intersection_tests: int = 0

    @property
    def candidates(self) -> int:
        return len(self.pairs)

    def pair_set(self) -> set[tuple[int, int]]:
        return set(self.pairs)

    def __repr__(self) -> str:
        return (
            f"SequentialJoinResult({self.candidates} candidates, "
            f"{self.node_pairs_visited} node pairs, "
            f"{self.intersection_tests} tests)"
        )


@dataclass
class ParallelJoinResult:
    """Outcome of one simulated parallel join run.

    The quantities mirror the paper's evaluation: ``metrics.disk_accesses``
    (Figures 5, 8, 10), ``times.response_time`` / per-processor finish
    times (Figures 7, 9), speed-up via :meth:`speedup_against`.
    ``pairs_by_processor`` holds one
    :class:`~repro.geometry.rows.PairTable` a processor: its candidates
    in the order it found them.
    """

    pairs_by_processor: list[PairTable]
    metrics: Metrics
    times: ProcessorTimes
    tasks_created: int = 0
    task_level: int = 0
    tasks_by_processor: list[int] = field(default_factory=list)
    reassignments: int = 0
    #: Event record + invariant-checker verdicts of a traced run
    #: (``ParallelJoinConfig.trace``); None when tracing was off.
    trace: Optional[TraceHandle] = None

    @property
    def candidates(self) -> int:
        return sum(len(pairs) for pairs in self.pairs_by_processor)

    @property
    def pairs(self) -> PairTable:
        """Every candidate as one table, processor by processor — built
        when asked for, kept nowhere."""
        return PairTable.concat(self.pairs_by_processor)

    def pair_set(self) -> set[tuple[int, int]]:
        out: set[tuple[int, int]] = set()
        for pairs in self.pairs_by_processor:
            out.update(pairs)
        return out

    @property
    def disk_accesses(self) -> int:
        return self.metrics.disk_accesses

    @property
    def response_time(self) -> float:
        return self.times.response_time

    def speedup_against(self, single: "ParallelJoinResult") -> float:
        """Speed-up t(1)/t(n) against a one-processor run (section 4.5)."""
        if self.response_time == 0:
            return float("inf")
        return single.response_time / self.response_time

    def __repr__(self) -> str:
        return (
            f"ParallelJoinResult(n={self.times.n}, "
            f"candidates={self.candidates}, "
            f"disk_accesses={self.disk_accesses}, "
            f"response={self.response_time:.2f}s)"
        )
