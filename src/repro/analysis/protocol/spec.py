"""Declarative protocol specifications.

A :class:`ProtocolSpec` is one automaton written down once and consumed
twice: the bounded model checker (:mod:`.model`) explores interleavings
of K abstract actors over it, and the conformance monitor
(:mod:`.conformance`) replays recorded trace events against it.  To keep
one artifact honest for both uses, every guard and effect has the single
signature ``(vars, actor, data)``:

* ``vars`` — the mutable shared-variable dict (model: the explored
  state; conformance: the per-instance dict);
* ``actor`` — the firing actor (model: an abstract actor index in
  ``range(spec.actors)``; conformance: the event's ``proc``);
* ``data`` — the trace event payload (model: always ``{}``, so guards
  written as ``data.get(key, fallback)`` degrade gracefully).

Model-only concerns are kept out of the semantic guard: ``bound`` caps
state-space growth (e.g. "at most 3 grants") and is never evaluated at
runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Optional, Sequence

from ...trace.events import EventKind, TraceEvent

__all__ = [
    "Transition",
    "SafetyProperty",
    "EventBinding",
    "CounterBinding",
    "EndInvariant",
    "ProtocolSpec",
    "Mutation",
]

#: ``(vars, actor, data) -> bool`` — enabling condition of a transition.
Guard = Callable[[dict, int, Mapping[str, Any]], bool]
#: ``(vars, actor, data) -> None`` — state update; mutates ``vars`` in place.
Effect = Callable[[dict, int, Mapping[str, Any]], None]


@dataclass(frozen=True)
class Transition:
    """One guarded edge of the automaton from protocol state ``source``
    to ``target``; which actor fires it is the guard's business."""

    name: str
    source: str
    target: str
    guard: Optional[Guard] = None
    #: Model-only state-space cap (never evaluated during conformance).
    bound: Optional[Guard] = None
    effect: Optional[Effect] = None


@dataclass(frozen=True)
class SafetyProperty:
    """A predicate over reachable states.

    ``on="always"`` is checked at every reachable state; ``on="deadlock"``
    only at quiescent states (no model transition enabled) — the shape of
    liveness-flavoured properties like "an expired task never wedges
    unrequeued" in a bounded, untimed model.  The predicate reads the
    protocol state and the shared variables.
    """

    name: str
    description: str
    predicate: Callable[[str, Mapping[str, int]], bool]
    on: str = "always"  # "always" | "deadlock"

    def __post_init__(self) -> None:
        if self.on not in ("always", "deadlock"):
            raise ValueError(f"unknown property mode {self.on!r}")


@dataclass(frozen=True)
class EventBinding:
    """Maps one trace event kind onto candidate transitions.

    At replay, the first listed transition whose source matches the
    instance's current state and whose guard passes is fired; no match is
    a conformance violation.
    """

    kind: EventKind
    transitions: tuple[str, ...]
    #: An event of this kind may name no instance: one whose key is
    #: ``None`` lies outside the protocol and is skipped.  For any other
    #: binding a ``None`` key is an instance like any other.
    keyless: bool = False


@dataclass(frozen=True)
class CounterBinding:
    """A global (cross-instance) ledger counter: one per event of a kind
    (with ``flag``, only those whose payload sets that key truthy)."""

    counter: str
    kind: EventKind
    flag: Optional[str] = None


@dataclass(frozen=True)
class EndInvariant:
    """End-of-stream equation over the global counters."""

    name: str
    description: str
    predicate: Callable[[Mapping[str, int]], bool]


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol: automaton + properties + trace-event bindings."""

    name: str
    description: str
    states: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...]
    properties: tuple[SafetyProperty, ...] = ()
    #: Initial shared variables (ints only — they are fingerprinted).
    vars: Mapping[str, int] = field(default_factory=dict)
    #: Number of concurrent abstract actors the model checker interleaves.
    actors: int = 2
    # -- conformance ----------------------------------------------------------
    #: Instance key extracted from a bound event (no key: one instance).
    key: Optional[Callable[[TraceEvent], Any]] = None
    bindings: tuple[EventBinding, ...] = ()
    counters: tuple[CounterBinding, ...] = ()
    end_invariants: tuple[EndInvariant, ...] = ()
    #: States an instance may lawfully end the stream in (``None`` = any).
    terminal_states: Optional[frozenset[str]] = None

    def __post_init__(self) -> None:
        names = [t.name for t in self.transitions]
        if len(names) != len(set(names)):
            raise ValueError(f"{self.name}: duplicate transition names")
        if self.initial not in self.states:
            raise ValueError(f"{self.name}: initial state not in states")
        valid = set(self.states)
        for t in self.transitions:
            if t.source not in valid:
                raise ValueError(f"{self.name}.{t.name}: bad source {t.source!r}")
            if t.target not in valid:
                raise ValueError(f"{self.name}.{t.name}: bad target {t.target!r}")
        by_name = self.transitions_by_name()
        for binding in self.bindings:
            for tname in binding.transitions:
                if tname not in by_name:
                    raise ValueError(
                        f"{self.name}: binding for {binding.kind.value} "
                        f"names unknown transition {tname!r}"
                    )
        if self.terminal_states is not None:
            bad = self.terminal_states - valid
            if bad:
                raise ValueError(f"{self.name}: bad terminal states {bad}")

    def transitions_by_name(self) -> dict[str, Transition]:
        return {t.name: t for t in self.transitions}

    def replace_transitions(
        self, *, drop: Sequence[str] = (), add: Sequence[Transition] = ()
    ) -> "ProtocolSpec":
        """A copy with *drop* transitions removed and *add* appended —
        the mutation-builder primitive."""
        dropped = set(drop)
        known = {t.name for t in self.transitions}
        missing = dropped - known
        if missing:
            raise ValueError(f"{self.name}: cannot drop unknown {missing}")
        kept = tuple(t for t in self.transitions if t.name not in dropped)
        remaining = {t.name for t in kept} | {t.name for t in add}
        bindings = tuple(
            replace(
                b,
                transitions=tuple(
                    n for n in b.transitions if n in remaining
                ),
            )
            for b in self.bindings
        )
        bindings = tuple(b for b in bindings if b.transitions)
        return replace(
            self, transitions=kept + tuple(add), bindings=bindings
        )


@dataclass(frozen=True)
class Mutation:
    """A deliberately broken variant of a registered spec.

    The model checker must find a counterexample violating
    ``expect_property`` on ``apply(spec)`` — if it cannot, the checker
    (not the spec) is what's broken, and the gate fails.
    """

    name: str
    description: str
    spec_name: str
    expect_property: str
    apply: Callable[[ProtocolSpec], ProtocolSpec]
