"""Seeded, deterministic fault injection for the runtime layers.

The paper's central claim is that the parallel join degrades gracefully
when a processor falls behind (task reassignment, section 3.4); this
package extends that discipline from *skew* to *faults* on real
processes: a :class:`FaultPlan` describes worker crashes, hangs, slowed
I/O and task kills, and a :class:`FaultInjector` deterministically
injects them at two seams — the serving worker pool
(:mod:`repro.service.workers`) and the forked join's workers
(:mod:`repro.join.mp`).  The simulated machine has none: the paper
measures a fault-free one.

Every injection is emitted as an ``FLT_*`` event on the
:mod:`repro.trace` bus; the resilience layer's recovery actions are
``SUP_*`` events, and the ``worker-call`` protocol spec
(:mod:`repro.analysis.protocol.specs`) reconciles the two ledgers: every
injected fault must be retried to success or surfaced as an explicit
error — never silently lost.
"""

from .injector import (
    CRASH_EXIT_CODE,
    FaultDirective,
    FaultInjector,
    InjectedCrash,
    apply_directive,
)
from .plan import NO_FAULTS, FaultPlan

__all__ = [
    "FaultPlan",
    "NO_FAULTS",
    "FaultInjector",
    "FaultDirective",
    "InjectedCrash",
    "apply_directive",
    "CRASH_EXIT_CODE",
]
