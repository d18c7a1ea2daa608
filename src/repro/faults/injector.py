"""The fault injector: turns a :class:`~repro.faults.plan.FaultPlan`
into concrete, traced fault decisions at each seam.

Decisions are drawn **in the parent / control process**, one per
opportunity, from per-site seeded streams — the injector therefore knows
exactly which calls it sabotaged and emits one ``FLT_INJECT_*`` event per
injection, keyed by a monotonically increasing id.  That parent-side
ledger is what lets the ``worker-call`` protocol spec
(:mod:`repro.analysis.protocol.specs`) prove that every injected fault
was retried to success or surfaced as an explicit error: a fault that a
child process swallowed silently would leave its id unreconciled.

Worker faults travel to the executing worker as a small picklable
:class:`FaultDirective`; :func:`apply_directive` executes it inside the
worker (``os._exit`` for a hard crash in a forked process, a raised
:class:`InjectedCrash` in the thread fallback, ``time.sleep`` for hangs
and slow I/O).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..trace import NULL_TRACER, EventKind, Tracer
from .plan import FaultPlan

__all__ = [
    "FaultDirective",
    "FaultInjector",
    "InjectedCrash",
    "apply_directive",
]

#: Exit status of a worker killed by an injected crash (recognisable in
#: ``ps``/waitpid diagnostics; value is arbitrary but distinctive).
CRASH_EXIT_CODE = 86


class InjectedCrash(RuntimeError):
    """A synthetic worker crash, raised where a process cannot die.

    The thread fallback of the worker pool cannot ``os._exit`` without
    taking the whole engine down, so an injected crash surfaces as this
    exception — the caller-visible effect (the call fails abruptly and
    must be retried) is the same.
    """


@dataclass(frozen=True)
class FaultDirective:
    """One worker call's fault instruction (picklable, parent-decided)."""

    fault: str  # "crash" | "hang" | "slow"
    sleep_s: float = 0.0


def apply_directive(
    directive: Optional[FaultDirective], *, hard_crash: bool
) -> None:
    """Execute *directive* inside the worker before the real work.

    ``hard_crash`` selects ``os._exit`` (forked process) over raising
    :class:`InjectedCrash` (thread fallback).
    """
    if directive is None:
        return
    if directive.fault == "crash":
        if hard_crash:
            import os

            os._exit(CRASH_EXIT_CODE)
        raise InjectedCrash("injected worker crash")
    if directive.fault in ("hang", "slow"):
        import time

        time.sleep(directive.sleep_s)


class FaultInjector:
    """Draws fault decisions from a plan and emits the injection ledger.

    One injector instance belongs to one run (one engine, one
    ``multiprocessing_join`` call); its per-site RNG streams
    make the decision sequence a pure function of ``plan.seed`` and the
    order of opportunities.
    """

    def __init__(self, plan: FaultPlan, tracer: Tracer = NULL_TRACER):
        self.plan = plan
        self.tracer = tracer
        self._worker_rng = plan.rng_for("worker")
        self._task_rng = plan.rng_for("task")
        # task-kill bookkeeping: each task id rolls at most once, each
        # targeted kill fires at most once — re-executions of a requeued
        # orphan are never re-killed, so recovery always makes progress.
        self._task_rolled: set = set()
        self._targets_fired: set = set()
        # injection counters, by fault class
        self.crashes = 0
        self.hangs = 0
        self.slow_ios = 0
        self.task_kills = 0

    # -- worker-call seam ------------------------------------------------------
    def worker_directive(self, call_id: int) -> Optional[FaultDirective]:
        """Decide the fate of worker call *call_id* (None = healthy).

        At most one fault per call; crash dominates hang dominates slow,
        each consuming an independent roll so the marginal probabilities
        match the plan.
        """
        plan = self.plan
        rng = self._worker_rng
        crash = rng.random() < plan.worker_crash_p
        hang = rng.random() < plan.worker_hang_p
        slow = rng.random() < plan.slow_io_p
        if crash:
            self.crashes += 1
            if self.tracer.enabled:
                self.tracer.emit(EventKind.FLT_INJECT_CRASH, call=call_id)
            return FaultDirective("crash")
        if hang:
            self.hangs += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    EventKind.FLT_INJECT_HANG, call=call_id, sleep_s=plan.hang_s
                )
            return FaultDirective("hang", sleep_s=plan.hang_s)
        if slow:
            self.slow_ios += 1
            sleep_s = plan.slow_io_base_s * (plan.slow_io_factor - 1.0)
            if self.tracer.enabled:
                self.tracer.emit(
                    EventKind.FLT_INJECT_SLOW_IO, call=call_id, sleep_s=sleep_s
                )
            return FaultDirective("slow", sleep_s=sleep_s)
        return None

    # -- task seam (repro.recovery) --------------------------------------------
    def should_kill_at_task(self, task_id: int, proc: int = -1) -> bool:
        """Whether the worker starting *task_id* dies there.

        Consulted once per task start by the fork coordinator at chunk
        dispatch (*proc* names the chunk).  A kill fires for a targeted
        task id (``kill_at_task``) or a ``task_kill_p`` roll — each task
        id rolls at most once, each target fires at most once.  Emits
        ``FLT_INJECT_TASK_KILL`` on strike.
        """
        kill = False
        if (
            task_id in self.plan.kill_at_task
            and task_id not in self._targets_fired
        ):
            self._targets_fired.add(task_id)
            kill = True
        if task_id not in self._task_rolled:
            self._task_rolled.add(task_id)
            if self._task_rng.random() < self.plan.task_kill_p:
                kill = True
        if kill:
            self.task_kills += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    EventKind.FLT_INJECT_TASK_KILL, proc=proc, task=task_id
                )
        return kill

    # -- reporting -------------------------------------------------------------
    def counts(self) -> dict:
        return {
            "crashes": self.crashes,
            "hangs": self.hangs,
            "slow_ios": self.slow_ios,
            "task_kills": self.task_kills,
        }

    def __repr__(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.counts().items())
        return f"<FaultInjector {self.plan!r} {inner}>"
