"""The fault plan: what can break, how often, and under which seed.

A :class:`FaultPlan` is pure configuration — an immutable set of
probabilities and magnitudes for every fault class the framework can
inject, all of them on real processes:

* **worker crash** — a forked worker process dies hard (``os._exit``)
  while holding a call; the thread fallback raises
  :class:`~repro.faults.injector.InjectedCrash` instead (threads cannot
  be killed);
* **worker hang**  — the worker sleeps through the caller's deadline
  before answering;
* **slow I/O**     — a serving worker sleeps as long as a slowed I/O
  would take;
* **task kill** — the forked join's worker starting a task dies right
  there, probabilistically (``task_kill_p``) or targeted
  (``kill_at_task``), exercising lease expiry and chunk requeue in
  :mod:`repro.recovery`.

The simulated join has no faults, as the paper's machine has none.  All
randomness is derived from ``seed`` through stable per-site streams
(:meth:`rng_for`), so one plan replayed over the same call sequence
injects the identical faults — chaos tests are reproducible and a
methodology (``tests/chaos``, ``perf``'s ``serve-chaos``, the load
generator's ``--chaos-seed``) can name its exact seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

__all__ = ["FaultPlan", "NO_FAULTS"]


@dataclass(frozen=True)
class FaultPlan:
    """Probabilities and magnitudes of every injectable fault.

    All probabilities are per *opportunity*: per worker call for
    crash/hang/slow, per task for a kill.  A plan
    with every probability at 0 and no targeted kill is inert (see
    :data:`NO_FAULTS`).  Every setting is checked on construction: one
    ``ValueError`` names the first bad field and its value.
    """

    seed: int = 0
    #: P(worker process dies hard during a call).
    worker_crash_p: float = 0.0
    #: P(worker sleeps ``hang_s`` before answering).
    worker_hang_p: float = 0.0
    hang_s: float = 1.0
    #: P(one I/O is slowed) and the stretch factor applied when it is.
    slow_io_p: float = 0.0
    slow_io_factor: float = 4.0
    #: Base duration a serving worker sleeps to emulate one slowed I/O.
    slow_io_base_s: float = 0.005
    #: P(the forked join's worker starting a task is killed there).  Each
    #: task rolls at most once, so re-executions of a requeued chunk are
    #: never re-killed and the join always progresses.
    task_kill_p: float = 0.0
    #: Deterministic task-targeted kills: whichever worker starts one of
    #: these task ids dies there (fires once per id).
    kill_at_task: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for name in (
            "worker_crash_p", "worker_hang_p", "slow_io_p", "task_kill_p",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        for name, floor in (
            ("hang_s", 0.0), ("slow_io_base_s", 0.0), ("slow_io_factor", 1.0),
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= floor):
                raise ValueError(
                    f"{name} must be finite and >= {floor}, got {value!r}"
                )
        for task in self.kill_at_task:
            if isinstance(task, bool) or not isinstance(task, int) or task < 0:
                raise ValueError(
                    f"kill_at_task entries must be task ids >= 0, got {task!r}"
                )

    @property
    def active(self) -> bool:
        """Whether this plan can inject anything at all."""
        return (
            self.worker_crash_p > 0
            or self.worker_hang_p > 0
            or self.slow_io_p > 0
            or self.task_kill_p > 0
            or bool(self.kill_at_task)
        )

    def rng_for(self, site: str) -> random.Random:
        """A private RNG for one injection site.

        String seeds hash via SHA-512 inside :class:`random.Random`, so
        the stream is stable across processes and interpreter runs —
        unlike ``hash(str)``, which is salted.
        """
        return random.Random(f"faultplan:{self.seed}:{site}")

    def reseeded(self, seed: int) -> "FaultPlan":
        """The same plan under a different seed."""
        return replace(self, seed=seed)

    def __repr__(self) -> str:
        knobs = []
        if self.worker_crash_p:
            knobs.append(f"crash={self.worker_crash_p}")
        if self.worker_hang_p:
            knobs.append(f"hang={self.worker_hang_p}x{self.hang_s}s")
        if self.slow_io_p:
            knobs.append(f"slow={self.slow_io_p}x{self.slow_io_factor}")
        if self.task_kill_p or self.kill_at_task:
            knobs.append(f"kill={self.task_kill_p}+{len(self.kill_at_task)}t")
        inner = " ".join(knobs) if knobs else "inert"
        return f"<FaultPlan seed={self.seed} {inner}>"


#: The inert plan: nothing ever breaks.
NO_FAULTS = FaultPlan()
