"""Protocol spec registry, bounded model checker, and spec-compiled
conformance monitoring.

The repo's protocols — the parallel join's pair life cycle (paper
§3.4), the latched global-buffer directory (§3.2), the lease lifecycle,
the sharded sub-request settlement, the serving ledger and the worker
pool's call and process life cycles — are written
down here as explicit automatons
(:mod:`repro.analysis.protocol.specs`): states, guarded transitions,
trace-event labels, and safety properties.  One artifact, three uses:

* the **bounded model checker** (:mod:`repro.analysis.protocol.model`)
  exhaustively explores interleavings of K concurrent actors over each
  automaton and proves the declared safety properties offline, printing
  a counterexample path on violation;
* **planted mutations** (:data:`~repro.analysis.protocol.specs.MUTATIONS`)
  validate the checker itself: each deliberately broken spec (a dropped
  requeue edge, an allowed double-grant) must produce a counterexample,
  or the gate flags the checker as too weak to trust;
* the **conformance monitor**
  (:mod:`repro.analysis.protocol.conformance`) compiles the same
  automaton into a runtime trace checker that replays recorded JSONL
  streams — chaos, shard and recovery runs — against the spec instead
  of ad-hoc arithmetic.

``python -m repro.analysis`` runs the first two; every traced run
carries the third.
"""

from .conformance import ProtocolConformanceChecker, conformance_checkers
from .model import CheckResult, PropertyFailure, check_spec, format_counterexample
from .spec import (
    CounterBinding,
    EndInvariant,
    EventBinding,
    Mutation,
    ProtocolSpec,
    SafetyProperty,
    Transition,
)
from .specs import MUTATIONS, SPECS, get_spec

__all__ = [
    "Transition",
    "SafetyProperty",
    "EventBinding",
    "CounterBinding",
    "EndInvariant",
    "ProtocolSpec",
    "Mutation",
    "CheckResult",
    "PropertyFailure",
    "check_spec",
    "format_counterexample",
    "ProtocolConformanceChecker",
    "conformance_checkers",
    "SPECS",
    "MUTATIONS",
    "get_spec",
]
