"""Bounded model checker: exhaustive BFS over K-actor interleavings.

A model state is the pair ``(shared, vars)``; from each state every
actor may fire every enabled transition (source matches, ``bound`` and
``guard`` pass with ``data={}``).  BFS with a fingerprint
visited-set explores the reachable joint space exactly once per state;
``always`` properties are checked at every reachable state and
``deadlock`` properties at quiescent states (no transition enabled for
any actor).  Because BFS discovers states in increasing depth, the first
counterexample found for a property is a shortest one; its path is
reconstructed from parent pointers and rendered by
:func:`format_counterexample`.

Exploration continues after a property fails (only the first failure per
property is kept), so one run yields a complete per-property verdict —
which is what the mutation suite needs to assert that a planted break
violates *its* property and not an unrelated one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .spec import ProtocolSpec, Transition

__all__ = [
    "Step",
    "PropertyFailure",
    "CheckResult",
    "check_spec",
    "format_counterexample",
]

#: Hard cap on explored states — exceeding it means a spec is missing a
#: ``bound`` on some counter, which is a spec bug, not a scale problem.
MAX_STATES = 200_000

State = tuple[str, tuple[tuple[str, int], ...]]


@dataclass(frozen=True)
class Step:
    """One fired transition on a counterexample path."""

    actor: int
    transition: str
    shared: str
    vars: tuple[tuple[str, int], ...]

    def render(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.vars)
        return (
            f"actor {self.actor} fires {self.transition:<18} "
            f"-> state={self.shared}" + (f" [{inner}]" if inner else "")
        )


@dataclass(frozen=True)
class PropertyFailure:
    """A safety property violated at a reachable (or quiescent) state."""

    prop: str
    description: str
    state: State
    path: tuple[Step, ...]
    deadlock: bool


@dataclass
class CheckResult:
    """Outcome of model-checking one spec."""

    spec: str
    states_explored: int
    transitions_fired: int
    properties: dict[str, bool] = field(default_factory=dict)
    failures: list[PropertyFailure] = field(default_factory=list)
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures and not self.truncated

    def summary(self) -> str:
        verdict = "proved" if self.ok else "VIOLATED"
        extra = " (state space truncated)" if self.truncated else ""
        return (
            f"{self.spec}: {verdict} {sum(self.properties.values())}/"
            f"{len(self.properties)} properties over "
            f"{self.states_explored} states{extra}"
        )


def _initial_state(spec: ProtocolSpec) -> State:
    return spec.initial, tuple(sorted((k, int(v)) for k, v in spec.vars.items()))


def _enabled(
    spec: ProtocolSpec, state: State
) -> list[tuple[int, Transition]]:
    shared, var_items = state
    vars_view = dict(var_items)
    moves: list[tuple[int, Transition]] = []
    for t in spec.transitions:
        if t.source != shared:
            continue
        for actor in range(spec.actors):
            if t.bound is not None and not t.bound(vars_view, actor, {}):
                continue
            if t.guard is not None and not t.guard(vars_view, actor, {}):
                continue
            moves.append((actor, t))
    return moves


def _fire(state: State, actor: int, t: Transition) -> State:
    vars_dict = dict(state[1])
    if t.effect is not None:
        t.effect(vars_dict, actor, {})
    return t.target, tuple(sorted((k, int(v)) for k, v in vars_dict.items()))


def _path_to(
    state: State,
    parents: dict[State, Optional[tuple[State, int, str]]],
) -> tuple[Step, ...]:
    steps: list[Step] = []
    cursor: Optional[State] = state
    while cursor is not None:
        link = parents[cursor]
        if link is None:
            break
        prev, actor, tname = link
        steps.append(Step(actor, tname, *cursor))
        cursor = prev
    steps.reverse()
    return tuple(steps)


def check_spec(
    spec: ProtocolSpec, *, max_states: int = MAX_STATES
) -> CheckResult:
    """Exhaustively model-check *spec* up to *max_states* joint states."""
    result = CheckResult(spec=spec.name, states_explored=0, transitions_fired=0)
    for prop in spec.properties:
        result.properties[prop.name] = True
    failed: set[str] = set()

    def check(state: State, deadlock: bool) -> None:
        shared, var_items = state
        vars_view = dict(var_items)
        for prop in spec.properties:
            if prop.name in failed:
                continue
            if prop.on == "deadlock" and not deadlock:
                continue  # an "always" property holds at quiescence too
            if not prop.predicate(shared, vars_view):
                failed.add(prop.name)
                result.properties[prop.name] = False
                result.failures.append(
                    PropertyFailure(
                        prop=prop.name,
                        description=prop.description,
                        state=state,
                        path=_path_to(state, parents),
                        deadlock=deadlock,
                    )
                )

    start = _initial_state(spec)
    parents: dict[State, Optional[tuple[State, int, str]]] = {start: None}
    queue: deque[State] = deque([start])
    while queue:
        state = queue.popleft()
        result.states_explored += 1
        moves = _enabled(spec, state)
        check(state, deadlock=not moves)
        for actor, t in moves:
            result.transitions_fired += 1
            nxt = _fire(state, actor, t)
            if nxt in parents:
                continue
            if len(parents) >= max_states:
                result.truncated = True
                return result
            parents[nxt] = (state, actor, t.name)
            queue.append(nxt)
    return result


def format_counterexample(spec: ProtocolSpec, failure: PropertyFailure) -> str:
    """Render one property failure as a human-readable trace."""
    shared, var_items = failure.state
    inner = " ".join(f"{k}={v}" for k, v in var_items)
    lines = [
        f"counterexample for {spec.name}::{failure.prop}",
        f"  property: {failure.description}",
        f"  violated at: state={shared}"
        + (f" [{inner}]" if inner else "")
        + (" (quiescent: no transition enabled)" if failure.deadlock else ""),
        f"  path ({len(failure.path)} steps from initial "
        f"state={spec.initial}):",
    ]
    if not failure.path:
        lines.append("    <initial state>")
    for i, step in enumerate(failure.path, 1):
        lines.append(f"    {i:2d}. {step.render()}")
    return "\n".join(lines)
