"""Planted-mutation suite: each deliberately broken spec must yield a
counterexample for exactly the property it targets.

This is the gate's self-test — if a mutation stops producing a
counterexample, the model checker has gone too weak to trust.
"""

import pytest

from repro.analysis.protocol import (
    MUTATIONS,
    SPECS,
    check_spec,
    format_counterexample,
    get_spec,
)

IDS = [m.name for m in MUTATIONS]


class TestMutations:
    @pytest.mark.parametrize("mutation", MUTATIONS, ids=IDS)
    def test_mutation_violates_its_target_property(self, mutation):
        mutated = mutation.apply(get_spec(mutation.spec_name))
        result = check_spec(mutated)
        assert result.properties.get(mutation.expect_property) is False, (
            f"{mutation.name} did not break {mutation.expect_property}: "
            f"{result.summary()}"
        )

    @pytest.mark.parametrize("mutation", MUTATIONS, ids=IDS)
    def test_counterexample_has_a_concrete_path(self, mutation):
        mutated = mutation.apply(get_spec(mutation.spec_name))
        result = check_spec(mutated)
        failure = next(
            f for f in result.failures if f.prop == mutation.expect_property
        )
        text = format_counterexample(mutated, failure)
        assert mutation.expect_property in text
        # Deadlock wedges can occur at depth 0 in principle, but every
        # planted break needs at least one step to manifest.
        assert len(failure.path) >= 1

    @pytest.mark.parametrize("mutation", MUTATIONS, ids=IDS)
    def test_no_collateral_property_damage(self, mutation):
        # A mutation must break its target, not shotgun the whole spec —
        # otherwise the suite can't tell a precise checker from one that
        # fails everything.
        mutated = mutation.apply(get_spec(mutation.spec_name))
        result = check_spec(mutated)
        broken = {p for p, ok in result.properties.items() if not ok}
        assert mutation.expect_property in broken
        assert not result.truncated

    def test_mutation_names_unique(self):
        names = [m.name for m in MUTATIONS]
        assert len(names) == len(set(names))

    def test_every_spec_has_at_least_one_mutation(self):
        # Every shipped spec is exercised by the self-test.
        assert {m.spec_name for m in MUTATIONS} == {s.name for s in SPECS}

    @pytest.mark.parametrize("mutation", MUTATIONS, ids=IDS)
    def test_apply_does_not_mutate_the_registry_spec(self, mutation):
        pristine = get_spec(mutation.spec_name)
        mutation.apply(pristine)
        # The registry copy still proves all its properties.
        result = check_spec(get_spec(mutation.spec_name))
        assert result.ok, result.summary()
