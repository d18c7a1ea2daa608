"""The fault plan: what can break, how often, and under which seed.

A :class:`FaultPlan` is pure configuration — an immutable set of
probabilities and magnitudes for every fault class the framework can
inject:

* **worker crash** — a forked worker process dies hard (``os._exit``)
  while holding a call; the thread fallback raises
  :class:`~repro.faults.injector.InjectedCrash` instead (threads cannot
  be killed);
* **worker hang**  — the worker sleeps through the caller's deadline
  before answering;
* **slow I/O**     — page/service times are stretched by a multiplier
  (the simulated disk array) or an equivalent sleep (serving workers);
* **page corruption** — a bit of a buffered page copy is flipped before
  the copy is handed to the reader, exercising the checksum
  verify-on-read and read-repair path;
* **task kill** — the processor (simulated, or a forked chunk worker)
  starting a task dies right there, probabilistically
  (``task_kill_p``) or targeted (``kill_at_task`` /
  ``kill_processor_at_event``), exercising lease expiry and orphan
  requeue in :mod:`repro.recovery`;
* **torn journal append** — one append to the durable join journal is
  cut short mid-record, exercising the CRC frame check on resume.

All randomness is derived from ``seed`` through stable per-site streams
(:meth:`rng_for`), so one plan replayed over the same call sequence
injects the identical faults — chaos tests are reproducible and a
methodology (``tests/chaos``, ``perf``'s ``serve-chaos``, the load
generator's ``--chaos-seed``) can name its exact seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

__all__ = ["FaultPlan", "NO_FAULTS"]


@dataclass(frozen=True)
class FaultPlan:
    """Probabilities and magnitudes of every injectable fault.

    All probabilities are per *opportunity*: per worker call for
    crash/hang/slow, per buffered-copy read for corruption, per disk
    access for the I/O multiplier.  A plan with every probability at 0
    is inert (see :data:`NO_FAULTS`).
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
    #: Base duration a serving worker sleeps to emulate one slowed I/O
    #: (the simulated disk array stretches real service times instead).
    slow_io_base_s: float = 0.005
    #: P(a buffered page copy has one bit flipped before it is read).
    page_flip_p: float = 0.0
    #: P(the processor starting a task is killed there) — recoverable-join
    #: runs only (the lease/journal machinery must be on, or work is lost
    #: for good).  Each task rolls at most once, so re-executions of a
    #: requeued orphan are never re-killed and the join always progresses.
    task_kill_p: float = 0.0
    #: Deterministic task-targeted kills: whichever processor starts one
    #: of these task ids dies there (fires once per id).
    kill_at_task: tuple = field(default_factory=tuple)
    #: Deterministic processor-targeted kills: ``(proc, n)`` kills
    #: processor *proc* at its *n*-th task start (1-based, fires once).
    kill_processor_at_event: tuple = field(default_factory=tuple)
    #: P(one journal append is torn mid-write) — emulates a crash between
    #: write() and the newline hitting the disk.
    torn_append_p: float = 0.0

    def __post_init__(self):
        for name in (
            "worker_crash_p", "worker_hang_p", "slow_io_p", "page_flip_p",
            "task_kill_p", "torn_append_p",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.hang_s < 0 or self.slow_io_base_s < 0:
            raise ValueError("fault durations must be >= 0")
        if self.slow_io_factor < 1.0:
            raise ValueError("slow_io_factor must be >= 1")
        for task in self.kill_at_task:
            if not isinstance(task, int) or task < 0:
                raise ValueError("kill_at_task entries must be task ids >= 0")
        for entry in self.kill_processor_at_event:
            if (
                not isinstance(entry, tuple)
                or len(entry) != 2
                or entry[1] < 1
            ):
                raise ValueError(
                    "kill_processor_at_event entries must be (proc, n>=1)"
                )

    @property
    def active(self) -> bool:
        """Whether this plan can inject anything at all."""
        return (
            self.worker_crash_p > 0
            or self.worker_hang_p > 0
            or self.slow_io_p > 0
            or self.page_flip_p > 0
            or self.task_kill_p > 0
            or self.torn_append_p > 0
            or bool(self.kill_at_task)
            or bool(self.kill_processor_at_event)
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
        if self.page_flip_p:
            knobs.append(f"flip={self.page_flip_p}")
        if self.task_kill_p or self.kill_at_task or self.kill_processor_at_event:
            knobs.append(
                f"kill={self.task_kill_p}"
                f"+{len(self.kill_at_task)}t"
                f"+{len(self.kill_processor_at_event)}p"
            )
        if self.torn_append_p:
            knobs.append(f"torn={self.torn_append_p}")
        inner = " ".join(knobs) if knobs else "inert"
        return f"<FaultPlan seed={self.seed} {inner}>"


#: The inert plan: nothing ever breaks.
NO_FAULTS = FaultPlan()
