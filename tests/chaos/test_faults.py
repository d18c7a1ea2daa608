"""Units for the fault-injection framework itself: plan validation,
seeded determinism, directives and task kills."""

import math

import pytest

from repro.faults import (
    FaultDirective,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    NO_FAULTS,
    apply_directive,
)
from repro.recovery import RecoveryConfig
from repro.trace import EventKind, ListSink, Tracer


class TestFaultPlan:
    def test_no_faults_is_inactive(self):
        assert not NO_FAULTS.active

    def test_any_probability_activates(self):
        assert FaultPlan(worker_crash_p=0.1).active
        assert FaultPlan(worker_hang_p=0.1).active
        assert FaultPlan(slow_io_p=0.1).active
        assert FaultPlan(task_kill_p=0.1).active
        assert FaultPlan(kill_at_task=(3,)).active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"worker_crash_p": -0.1},
            {"worker_crash_p": 1.5},
            {"slow_io_factor": 0.5},
            {"hang_s": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_rng_streams_are_per_site_and_seeded(self):
        plan = FaultPlan(seed=42, worker_crash_p=0.5)
        # Same seed + site -> identical stream; different site -> different.
        a = [plan.rng_for("worker").random() for _ in range(5)]
        b = [plan.rng_for("worker").random() for _ in range(5)]
        c = [plan.rng_for("io").random() for _ in range(5)]
        assert a == b
        assert a != c

    def test_reseeded(self):
        plan = FaultPlan(seed=1, worker_crash_p=0.3)
        other = plan.reseeded(2)
        assert other.seed == 2
        assert other.worker_crash_p == plan.worker_crash_p


class TestInjectorDeterminism:
    def test_same_seed_same_directives(self):
        plan = FaultPlan(
            seed=7, worker_crash_p=0.2, worker_hang_p=0.2, slow_io_p=0.2
        )
        runs = []
        for _ in range(2):
            injector = FaultInjector(plan)
            runs.append(
                [injector.worker_directive(i) for i in range(50)]
            )
        assert runs[0] == runs[1]
        assert any(d is not None for d in runs[0])

    def test_different_seed_different_decisions(self):
        base = FaultPlan(seed=7, worker_crash_p=0.3)
        one = [
            FaultInjector(base).worker_directive(i) for i in range(64)
        ]
        two = [
            FaultInjector(base.reseeded(8)).worker_directive(i)
            for i in range(64)
        ]
        assert one != two

    def test_injections_are_traced_with_call_ids(self):
        sink = ListSink()
        tracer = Tracer(clock=lambda: 0.0, sinks=[sink])
        plan = FaultPlan(seed=3, worker_crash_p=1.0)
        injector = FaultInjector(plan, tracer=tracer)
        injector.worker_directive(17)
        assert injector.crashes == 1
        [event] = sink.events
        assert event.kind is EventKind.FLT_INJECT_CRASH
        assert event.data["call"] == 17

    def test_targeted_kill_fires_once_per_task(self):
        sink = ListSink()
        injector = FaultInjector(
            FaultPlan(kill_at_task=(4,)), tracer=Tracer(sinks=[sink])
        )
        assert [injector.should_kill_at_task(t, proc=9) for t in (3, 4, 4)] == [
            False, True, False,
        ]
        [event] = sink.events
        assert event.kind is EventKind.FLT_INJECT_TASK_KILL
        assert (event.proc, event.data["task"]) == (9, 4)


class TestDirectives:
    def test_apply_none_is_noop(self):
        apply_directive(None, hard_crash=True)

    def test_soft_crash_raises(self):
        with pytest.raises(InjectedCrash):
            apply_directive(FaultDirective("crash"), hard_crash=False)

    def test_hang_sleeps_briefly(self):
        apply_directive(
            FaultDirective("hang", sleep_s=0.001), hard_crash=False
        )

    def test_directive_is_picklable(self):
        import pickle

        directive = FaultDirective("hang", sleep_s=0.5)
        assert pickle.loads(pickle.dumps(directive)) == directive


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "setting, field, value",
    [
        (RecoveryConfig, "lease_s", NAN),
        (RecoveryConfig, "lease_s", INF),
        (RecoveryConfig, "lease_s", 0.0),
        (RecoveryConfig, "sweep_s", INF),
        (FaultPlan, "hang_s", NAN),
        (FaultPlan, "hang_s", INF),
        (FaultPlan, "slow_io_factor", NAN),
        (FaultPlan, "slow_io_base_s", INF),
        (FaultPlan, "kill_at_task", (True,)),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_non_finite_settings_are_refused(setting, field, value):
    """One ``ValueError`` naming the field and the value: an infinite
    lease never expires, so a hung worker would never be detected, a zero
    lease expires every chunk at hand-off, and a bool is no task id."""
    shown = repr(value[0] if isinstance(value, tuple) else value)
    with pytest.raises(ValueError, match=rf"^{field}\b.*{shown}$"):
        setting(**{field: value})
