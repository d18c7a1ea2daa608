"""Bounded model checker: machinery units plus the shipped-spec proofs."""

import pytest

from repro.analysis.protocol import (
    SPECS,
    ProtocolSpec,
    SafetyProperty,
    Transition,
    check_spec,
    format_counterexample,
    get_spec,
)


def _inc(counter):
    def effect(vars, actor, data):
        vars[counter] = vars.get(counter, 0) + 1

    return effect


def toy_spec(**overrides):
    """A two-state counter machine the machinery tests mutate."""
    base = dict(
        name="toy",
        description="toy",
        states=("a", "b"),
        initial="a",
        vars={"n": 0},
        actors=1,
        transitions=(
            Transition(
                "step",
                "a",
                "b",
                bound=lambda v, a, d: v["n"] < 3,
                effect=_inc("n"),
            ),
            Transition("back", "b", "a"),
        ),
        properties=(
            SafetyProperty(
                "bounded", "n stays small", lambda s, v: v["n"] <= 3
            ),
        ),
    )
    base.update(overrides)
    return ProtocolSpec(**base)


class TestMachinery:
    def test_proves_a_holding_property(self):
        result = check_spec(toy_spec())
        assert result.ok
        assert result.properties == {"bounded": True}
        assert result.states_explored > 0
        assert not result.truncated

    def test_counterexample_is_shortest(self):
        # n reaches 2 after two steps; the property fails there first.
        spec = toy_spec(
            properties=(
                SafetyProperty(
                    "tiny", "n below 2", lambda s, v: v["n"] < 2
                ),
            )
        )
        result = check_spec(spec)
        assert not result.ok
        (failure,) = result.failures
        assert failure.prop == "tiny"
        # Shortest path: step, back, step (BFS guarantees minimality).
        assert len(failure.path) == 3
        assert [s.transition for s in failure.path] == [
            "step", "back", "step",
        ]

    def test_deadlock_property_checked_only_at_quiescence(self):
        # Without "back", state b with n == 3 is quiescent; an "always"
        # variant of the same predicate would fail at the FIRST b state.
        spec = toy_spec(
            transitions=(
                Transition(
                    "step",
                    "a",
                    "b",
                    bound=lambda v, a, d: v["n"] < 1,
                    effect=_inc("n"),
                ),
            ),
            properties=(
                SafetyProperty(
                    "no_wedge_in_b",
                    "never quiesces in b",
                    lambda s, v: s != "b",
                    on="deadlock",
                ),
            ),
        )
        result = check_spec(spec)
        assert not result.ok
        (failure,) = result.failures
        assert failure.deadlock
        assert failure.state[0] == "b"

    def test_always_property_checked_at_quiescence_too(self):
        # The only state where n == 1 is the quiescent b: an "always"
        # property must still be checked there.
        spec = toy_spec(
            transitions=(
                Transition(
                    "step",
                    "a",
                    "b",
                    bound=lambda v, a, d: v["n"] < 1,
                    effect=_inc("n"),
                ),
            ),
            properties=(
                SafetyProperty("zero", "n stays 0", lambda s, v: v["n"] == 0),
            ),
        )
        result = check_spec(spec)
        (failure,) = result.failures
        assert failure.prop == "zero"
        assert failure.deadlock
        assert [s.transition for s in failure.path] == ["step"]

    def test_exploration_continues_after_a_failure(self):
        # One property fails early; the other must still be proved.
        spec = toy_spec(
            properties=(
                SafetyProperty(
                    "fails", "n below 1", lambda s, v: v["n"] < 1
                ),
                SafetyProperty(
                    "holds", "n bounded", lambda s, v: v["n"] <= 3
                ),
            )
        )
        result = check_spec(spec)
        assert result.properties == {"fails": False, "holds": True}
        assert len(result.failures) == 1

    def test_unbounded_spec_truncates(self):
        spec = toy_spec(
            transitions=(
                Transition("step", "a", "b", effect=_inc("n")),
                Transition("back", "b", "a", effect=_inc("n")),
            )
        )
        result = check_spec(spec, max_states=50)
        assert result.truncated
        assert not result.ok

    def test_format_counterexample_renders_path(self):
        spec = toy_spec(
            properties=(
                SafetyProperty(
                    "tiny", "n below 1", lambda s, v: v["n"] < 1
                ),
            )
        )
        result = check_spec(spec)
        text = format_counterexample(spec, result.failures[0])
        assert "counterexample for toy::tiny" in text
        assert "step" in text
        assert "path (" in text


class TestShippedSpecs:
    @pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
    def test_every_declared_property_is_proved(self, spec):
        result = check_spec(spec)
        assert result.ok, [
            format_counterexample(spec, f) for f in result.failures
        ]
        assert result.properties
        assert all(result.properties.values())
        assert not result.truncated

    @pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
    def test_state_spaces_stay_tiny(self, spec):
        # The bounds in each spec keep exploration well under the cap —
        # a regression here means someone dropped a bound.
        result = check_spec(spec)
        assert 0 < result.states_explored < 10_000

    def test_registry_lookup(self):
        assert get_spec("lease").name == "lease"
        with pytest.raises(KeyError):
            get_spec("nope")

    def test_spec_names_are_unique(self):
        names = [s.name for s in SPECS]
        assert len(names) == len(set(names))
