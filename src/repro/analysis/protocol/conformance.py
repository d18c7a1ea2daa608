"""Spec-compiled runtime conformance: replay a trace against an automaton.

One generic :class:`ProtocolConformanceChecker` is parameterized by a
:class:`~.spec.ProtocolSpec` and plugs into the standard checker
machinery (:mod:`repro.trace.checkers`): it keeps one automaton instance
per protocol key (task id, ``(request, shard)`` pair, page id, ``(r, s)``
node pair, call id, pid; one for the whole stream when the spec has no
key, and none for a ``keyless`` binding's event that names none),
advances it on every bound event — firing the first candidate
transition whose source state matches and whose guard passes, with the
event's ``proc`` as the actor and its payload as ``data`` — and flags:

* an event with **no enabled transition** (the implementation took an
  edge the spec does not have);
* an instance ending the stream **outside the spec's terminal states**
  (wedged protocol);
* a violated **end invariant** over the global ledger counters.

Because the same automatons are proved safe by the bounded model
checker, a conforming trace inherits the proved properties: the trace
exhibits only specified edges, and every specified behaviour satisfies
the spec's safety properties.  The monitors are the *only* runtime check
of these protocols; :mod:`repro.trace.checkers` holds no second copy.
"""

from __future__ import annotations

from typing import Any

from ...trace.checkers import InvariantChecker
from ...trace.events import EventKind, TraceEvent
from .spec import CounterBinding, EventBinding, ProtocolSpec
from .specs import SPECS

__all__ = ["ProtocolConformanceChecker", "conformance_checkers"]


class _Instance:
    """One live automaton: current state + per-instance variables."""

    __slots__ = ("state", "vars", "events")

    def __init__(self, spec: ProtocolSpec):
        self.state = spec.initial
        self.vars = {k: int(v) for k, v in spec.vars.items()}
        self.events = 0


class ProtocolConformanceChecker(InvariantChecker):
    """Replays recorded events against one protocol spec."""

    def __init__(self, spec: ProtocolSpec):
        super().__init__()
        self.spec = spec
        self.name = f"protocol:{spec.name}"
        self._by_name = spec.transitions_by_name()
        self._binding: dict[EventKind, EventBinding] = {
            binding.kind: binding for binding in spec.bindings
        }
        self._counter_bindings: dict[EventKind, list[CounterBinding]] = {}
        self.counters: dict[str, int] = {}
        for cb in spec.counters:
            self._counter_bindings.setdefault(cb.kind, []).append(cb)
            self.counters.setdefault(cb.counter, 0)
        self._instances: dict[Any, _Instance] = {}

    # -- sink ------------------------------------------------------------------
    def observe(self, event: TraceEvent) -> None:
        for cb in self._counter_bindings.get(event.kind, ()):
            if cb.flag is None or event.data.get(cb.flag):
                self.counters[cb.counter] += 1
        binding = self._binding.get(event.kind)
        if binding is not None:
            self._advance(binding, event)

    def _advance(self, binding: EventBinding, event: TraceEvent) -> None:
        key = self.spec.key(event) if self.spec.key else None
        if key is None and binding.keyless:
            return  # the event names no instance of this protocol
        inst = self._instances.get(key)
        if inst is None:
            inst = self._instances[key] = _Instance(self.spec)
        inst.events += 1
        for tname in binding.transitions:
            t = self._by_name[tname]
            if t.source != inst.state:
                continue
            if t.guard is not None and not t.guard(
                inst.vars, event.proc, event.data
            ):
                continue
            if t.effect is not None:
                t.effect(inst.vars, event.proc, event.data)
            inst.state = t.target
            return
        self._violate(
            f"{self.spec.name}[{key!r}]: no transition enabled for "
            f"{event.kind.value} in state {inst.state!r} "
            f"(candidates: {', '.join(binding.transitions)}; "
            f"event #{event.seq} proc={event.proc} "
            f"data={dict(event.data)!r})"
        )

    # -- verdict ---------------------------------------------------------------
    def at_end(self) -> None:
        if self.spec.terminal_states is not None:
            for key, inst in self._instances.items():
                if inst.state not in self.spec.terminal_states:
                    self._violate(
                        f"{self.spec.name}[{key!r}]: stream ended in "
                        f"non-terminal state {inst.state!r} (terminal: "
                        f"{sorted(self.spec.terminal_states)})"
                    )
        if any(self.counters.values()):
            for inv in self.spec.end_invariants:
                if not inv.predicate(self.counters):
                    inner = ", ".join(
                        f"{k}={v}" for k, v in sorted(self.counters.items())
                    )
                    self._violate(
                        f"{self.spec.name}: end invariant "
                        f"{inv.name} failed ({inv.description}): {inner}"
                    )

    def stats(self) -> dict[str, int]:
        out = {"events": self.events_seen, "instances": len(self._instances)}
        out.update(self.counters)
        return out


def conformance_checkers() -> list[InvariantChecker]:
    """Fresh conformance checkers for every registered spec.

    Each is vacuous on streams without its protocol's events, so the
    full set rides in every checker set of :mod:`repro.trace.checkers`.
    """
    return [ProtocolConformanceChecker(spec) for spec in SPECS]
